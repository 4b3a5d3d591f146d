(** Simulator for the behavioral specification (typed AST).

    Values are raw bit patterns with the bit-exact fixed-point semantics
    of {!Hls_cdfg.Op.eval}, so results are directly comparable with the
    CDFG simulator and the RTL simulator — the basis of the
    verification experiment ("the proof that a detailed design implements
    the exact design stated in the specification").

    Simulation is staged, as in {!Rtl_sim}: {!compile} resolves every
    port and variable to a slot of one value array and every operator to
    an {!Hls_cdfg.Op.compile_eval} closure, and {!run_image} executes the
    resulting statement closures. {!run} is compile-and-run. *)

open Hls_lang

exception Sim_error of string

type image
(** A compiled program: statement closures plus the mutable variable
    store and fuel counter they execute against. Reusable across
    {!run_image} calls (each run resets the store, also after a run that
    raised); not shareable across domains. *)

val compile : Typed.tprogram -> image

val run_image : ?fuel:int -> image -> inputs:(string * int) list -> (string * int) list
(** Execute a compiled program. Same contract as {!run}. *)

val run :
  ?fuel:int -> Typed.tprogram -> inputs:(string * int) list -> (string * int) list
(** Execute with the given raw input patterns, each wrapped to its
    variable's format (the first binding of a name wins; names the
    program does not declare are ignored; missing inputs read 0);
    returns every port and variable with its final pattern, sorted by
    name. [fuel] bounds executed statements and loop iterations
    (default 1_000_000); exceeding it raises {!Sim_error}, as does
    division by zero. Equivalent to {!compile} followed by
    {!run_image}; callers simulating one program repeatedly should
    compile once. *)

val output_ports : Typed.tprogram -> (string * Ast.ty) list

val to_raw : Ast.ty -> float -> int
val of_raw : Ast.ty -> int -> float
(** Convenience conversions for tests and examples. *)
