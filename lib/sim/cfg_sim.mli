(** Simulator for the compiled CDFG: executes blocks (data-flow values
    in node order, variable writes committed at block exit) and follows
    terminators. Bit-identical to {!Beh_sim} on compiled programs — the
    oracle that validates compilation and every optimization pass.

    Simulation is staged, as in {!Rtl_sim}: {!compile} resolves every
    variable to a slot of one store and every node to an
    {!Hls_cdfg.Op.compile_eval} closure over its block's value array,
    and {!run_image} follows the staged terminators. {!run} is
    compile-and-run. *)

exception Sim_error of string

type image
(** A compiled CDFG (a snapshot: later edits to the graph are not
    seen): per-block node closures plus the mutable store and per-block
    value arrays they execute against. Reusable across {!run_image}
    calls (each run resets the store, also after a run that raised);
    not shareable across domains. *)

val compile : Hls_cdfg.Cfg.t -> image

val run_image : ?fuel:int -> image -> inputs:(string * int) list -> (string * int) list
(** Execute a compiled CDFG. Same contract as {!run}. *)

val run :
  ?fuel:int -> Hls_cdfg.Cfg.t -> inputs:(string * int) list -> (string * int) list
(** Execute with the given raw input patterns, stored unchanged (the
    last binding of a name wins; missing variables read 0). Returns,
    sorted by name, every input and every variable written during the
    run with its final pattern. [fuel] bounds executed blocks (default
    1_000_000); exceeding it raises {!Sim_error}, as does division by
    zero. Equivalent to {!compile} followed by {!run_image}. *)
