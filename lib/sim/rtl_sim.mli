(** Cycle-accurate simulation of the synthesized RTL: state register,
    functional-unit activations, register loads and branch decisions,
    exactly as the datapath + controller would execute in hardware.

    Given a [~controller] the next state is computed by evaluating that
    controller's (Quine–McCluskey-minimized) next-state logic instead of
    the abstract FSM — demonstrating that controller synthesis preserved
    behavior. Pass the design's own controller: the simulator does not
    synthesize one, so the logic checked is the logic the design ships.

    Simulation is a compiled kernel: {!compile} stages the design once —
    per-state activation/load arrays instead of per-cycle list filtering,
    wire trees and operator dispatch folded into closures, registers in a
    dense value array, and gate-level next-state functions memoized per
    (state, condition) — and {!run_image} replays the staged image at
    ≥3× the interpreted throughput with identical results. {!run} is
    compile-and-run. The retained seed interpreter, the oracle for the
    differential tests and the benchmark baseline, is
    [Hls_reference.Rtl_reference.run] under [test/reference/].
    Work is reported through {!Hls_obs.Trace} counters [sim/cycles] and
    [sim/images_compiled]. *)

exception Sim_error of string

type result = {
  finals : (string * int) list;  (** register name → final pattern *)
  cycles : int;  (** clock cycles until DONE *)
}

type image
(** A compiled design: per-state closures plus the mutable register and
    functional-unit state they execute against. Reusable across
    {!run_image} calls (each run resets the state); not shareable across
    domains. *)

val compile : ?controller:Hls_ctrl.Ctrl_synth.t -> Hls_rtl.Datapath.t -> image
(** Stage a datapath for repeated simulation, under gate-level control
    by [controller] when one is given. A controller over an FSM with a
    different state count raises {!Sim_error}, as does a run whose
    next-state logic yields a code no state has. *)

val run_image :
  ?fuel:int ->
  ?on_cycle:(cycle:int -> state:int -> regs:(string * int) list -> unit) ->
  image ->
  inputs:(string * int) list ->
  result
(** Execute a compiled image. Same contract as {!run}. *)

val run_batch :
  ?fuel:int -> image -> vectors:(string * int) list list -> result list
(** Throughput mode: replay one compiled image over a whole batch of
    stimulus vectors, amortizing {!compile} across the batch. Results
    are in vector order; each run resets the image, so the batch is
    exactly equivalent to mapping {!run_image}. Reports the batch size
    through the [sim/batch_vectors] counter (the per-run [sim/cycles]
    still accumulates). *)

val run :
  ?fuel:int ->
  ?controller:Hls_ctrl.Ctrl_synth.t ->
  ?on_cycle:(cycle:int -> state:int -> regs:(string * int) list -> unit) ->
  Hls_rtl.Datapath.t ->
  inputs:(string * int) list ->
  result
(** [inputs] preload the named registers (input ports). [fuel] bounds the
    cycle count (default 1_000_000). [controller] selects gate-level
    control, as in {!compile}.
    [on_cycle] observes every clock edge: the cycle number, the state
    entered, and the post-edge register values (sorted) — the hook used
    by {!Vcd} waveform dumping. Equivalent to {!compile} followed by
    {!run_image}; callers simulating one design repeatedly should compile
    once. *)
