(** Co-simulation: the design-verification experiment. Runs the
    behavioral interpreter, the CDFG interpreter, and the RTL simulator
    on the same inputs and demands bit-identical output-port values —
    evidence that compilation, every optimization pass, scheduling,
    allocation and controller synthesis preserved the specified
    behavior. *)

open Hls_lang

type design = {
  d_prog : Typed.tprogram;
  d_cfg : Hls_cdfg.Cfg.t;
  d_datapath : Hls_rtl.Datapath.t;
}

val check :
  ?gate_level_control:bool ->
  ?image:Rtl_sim.image ->
  design ->
  inputs:(string * int) list ->
  (int, string) result
(** [Ok cycles] when all three levels agree on every output port (the
    payload is the RTL cycle count); otherwise a diagnostic naming the
    first mismatching port and the three values. Each input pattern is
    first wrapped to its port's format, so every level sees the same
    stimulus; a name that is not an input port is an [Error]. Pass [image] (a
    {!Rtl_sim.compile} of the design's datapath) to skip recompiling
    when checking many vectors; [gate_level_control] is then ignored in
    favor of the image's own mode. *)

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
    sequential loop's. *)
