(** Combinational wire expressions of the datapath: what a functional-unit
    input port or a register input is connected to in a given state.
    Free operations (constant shifts, zero-detect, value-steering muxes)
    appear here as wiring, not as functional units. *)

open Hls_lang

type t =
  | W_reg of string  (** register output *)
  | W_const of int * Ast.ty
  | W_fu_out of int * Ast.ty  (** combinational output of a functional unit *)
  | W_shl of t * int * Ast.ty
  | W_shr of t * int * Ast.ty
  | W_zdetect of t
  | W_mux of t * t * t * Ast.ty  (** cond, then, else *)
  | W_not of t * Ast.ty
      (** boolean complement arising from branch polarity *)

val ty : t -> (string -> Ast.ty) -> Ast.ty
(** Result type; the callback resolves register widths. *)

val eval : t -> reg:(string -> int) -> fu:(int -> int) -> int
(** Evaluate against current register values and (already computed)
    functional-unit outputs. *)

val depth_delay_ns : t -> float
(** Combinational delay contributed by the free logic of the expression
    (excludes the FU's own delay; includes mux/shift/zero-detect levels). *)

val to_string : t -> string
(** Verilog expression text, naming nets as {!Emit} declares them: a
    unit's output is [fuN_out], a register its name. *)

val regs_read : t -> string list
(** Registers the expression reads, sorted and deduplicated. *)

val fus_read : t -> int list
(** Functional units whose outputs feed the expression. *)

val for_all_regs : (string -> bool) -> t -> bool
(** Every register the expression reads satisfies the predicate; no
    list is built. *)

val for_all_fus : (int -> bool) -> t -> bool
(** Every functional unit whose output feeds the expression satisfies
    the predicate. *)
