(** Operation vocabulary of the data-flow graph.

    Each node in a DFG carries one of these operators. [Const], [Read] and
    [Write] anchor values at basic-block boundaries: a [Read] materializes
    the register/port holding a variable at block entry, and a [Write]
    commits a value back to its register/port at the end of its control
    step. The remaining operators are computations that must be assigned
    to functional units by scheduling and allocation. *)

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type t =
  | Const of int  (** literal bit pattern; meaning given by the node type *)
  | Read of string  (** variable or input port, read at block entry *)
  | Write of string  (** variable or output port; single argument *)
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | And | Or | Xor | Not | Neg
  | Cmp of cmp
  | Incr | Decr  (** increment/decrement, introduced by strength reduction *)
  | Zdetect  (** equality-with-zero test, free wiring on a register output *)
  | Mux  (** args = [cond; then; else]; interconnect, not a functional unit *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val of_binop : Hls_lang.Ast.binop -> t
(** Translation from the surface-language operator. *)

val arity : t -> int
(** Expected argument count ([Const]/[Read] take none). *)

(** Functional-unit class of an operation, the unit of resource limits in
    scheduling and of sharing in allocation.

    [C_free] operations (constant shifts, zero-detect, mux) consume no
    control step and no functional unit — they are wiring, per the paper's
    "the shift operation is free". [C_none] operations ([Const], [Read],
    and [Write] of a computed value) are not executed at all; a [Write]
    whose argument is a constant or another variable is a register move
    and occupies an ALU slot ([C_alu]). Class assignment of shifts and
    writes therefore depends on context and lives in {!Dfg.fu_class_of}. *)
type fu_class = C_alu | C_mul | C_div | C_shift | C_free | C_none

val fu_class_to_string : fu_class -> string

val occupying_classes : fu_class list
(** The classes whose operations take a control step on a functional
    unit — [C_alu], [C_mul], [C_div], [C_shift], in declaration order.
    Resource limits, bounds and allocation range over exactly these. *)

val occupies : fu_class -> bool
(** Membership in {!occupying_classes}. *)

val base_class : t -> fu_class
(** Context-free classification: shifts are classified [C_shift] and writes
    [C_none]; {!Dfg.fu_class_of} refines both. *)

val fmt_of : Hls_lang.Ast.ty -> Hls_util.Fixedpt.format
(** The fixed-point format every evaluation of a node of this type uses
    (booleans are 1-bit integers). Shared with the range analysis so its
    transfer functions wrap exactly like {!eval}. *)

val bits_of : Hls_lang.Ast.ty -> int
(** Storage width of the type in bits: the total width of {!fmt_of}. *)

val eval : Hls_lang.Ast.ty -> t -> int list -> int
(** Bit-exact evaluation of an operator at a result type, shared by the
    CDFG interpreter and the RTL simulator. Comparison arguments are
    compared as signed patterns; fixed-point multiply/divide rescale.
    Raises [Invalid_argument] on arity mismatch and [Division_by_zero]
    accordingly. *)

val compile_eval : Hls_lang.Ast.ty -> t -> int array -> int
(** Staged {!eval}: resolves the fixed-point format and the operator
    dispatch once and returns a closure over an argument buffer. The
    closure raises exactly what {!eval} would ([Invalid_argument] on
    arity mismatch, [Division_by_zero]) and computes the same patterns —
    the compiled RTL simulator's per-cycle inner loop. *)
