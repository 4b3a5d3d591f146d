(** Co-simulation: the design-verification experiment. Runs the
    behavioral interpreter, the CDFG interpreter, and the RTL simulator
    on the same inputs and demands bit-identical output-port values —
    evidence that compilation, every optimization pass, scheduling,
    allocation and controller synthesis preserved the specified
    behavior.

    A design is a value: its parts must not be mutated in place after
    synthesis. {!check_random} relies on this to reuse verdicts (see
    there). *)

open Hls_lang

type design = {
  d_prog : Typed.tprogram;
  d_cfg : Hls_cdfg.Cfg.t;
  d_datapath : Hls_rtl.Datapath.t;
  d_controller : Hls_ctrl.Ctrl_synth.t;
      (** the controller the design ships, simulated under
          [gate_level_control] *)
}

val check :
  ?gate_level_control:bool ->
  ?image:Rtl_sim.image ->
  design ->
  inputs:(string * int) list ->
  (int, string) result
(** [Ok cycles] when all three levels agree on every output port (the
    payload is the RTL cycle count); otherwise a diagnostic naming the
    first mismatching port and the three values. A level's simulation
    error (out of fuel, division by zero, a next-state code no state
    has, ...) is an [Error "<level>: <message>"] too, with level
    [rtl], [behavioral] or [cdfg]. Each input pattern is
    first wrapped to its port's format, so every level sees the same
    stimulus; a name that is not an input port is an [Error]. With
    [gate_level_control] the RTL level steps [d_controller]'s
    minimized next-state logic instead of the abstract FSM. Pass
    [image] (a {!Rtl_sim.compile} of the design's datapath) to skip
    recompiling when checking many vectors; [gate_level_control] is
    then ignored in favor of the image's own mode. *)

val check_random :
  ?runs:int ->
  ?seed:int ->
  ?gate_level_control:bool ->
  design ->
  (unit, string) result
(** {!check} on pseudo-random input vectors (default 20 runs). The
    vectors are drawn up front and the RTL level runs as one
    {!Rtl_sim.run_batch} over a single compiled image, and the
    behavioral and CDFG levels each replay one {!Beh_sim.compile} /
    {!Cfg_sim.compile} image, so every level's compile cost is paid once
    per design rather than once per run; the stimulus
    stream and the first-failure diagnostic are the same as the
    sequential loop's, simulation errors included.

    Each domain keeps the verdicts of its 4 most recently asked checks.
    A check whose [d_prog], [d_cfg], [d_datapath] and [d_controller]
    are each physically equal ([==]) to a kept check's, with the same
    [runs], [seed] and [gate_level_control], returns the kept verdict
    without simulating and counts [sim/cosim_reused]; an [Error] is
    kept like any other verdict. A kept verdict
    holds its design's parts weakly (ephemerons): it answers only while
    the design is alive and never keeps it alive. The frontier
    points of a [Dse] sweep that share a backend class share
    one physical design, so each distinct design is simulated once. A
    copy of a design (e.g. through [Marshal]) is physically fresh and is
    always simulated. *)
