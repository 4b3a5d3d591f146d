(** Abstract syntax of the behavioral specification language (BSL).

    BSL is the Pascal/ISPS-flavored procedural input language described in
    section 2 of the tutorial: assignments over integer and fixed-point
    scalars, structured into sequences, conditionals and loops. A program
    ("module") describes the required mapping from input ports to output
    ports; it constrains internal structure as little as possible. *)

(** Source position, for diagnostics. *)
type pos = { line : int; col : int }

val dummy_pos : pos

(** Scalar types.

    - [Tbool] — a single condition bit.
    - [Tint w] — signed two's-complement integer of [w] bits.
    - [Tfix (i, f)] — signed fixed-point with [i] integer bits and [f]
      fraction bits. *)
type ty = Tbool | Tint of int | Tfix of int * int

val equal_ty : ty -> ty -> bool
val ty_to_string : ty -> string

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | And | Or | Xor
  | Eq | Ne | Lt | Le | Gt | Ge

val binop_to_string : binop -> string
val is_comparison : binop -> bool

type unop = Neg | Not

val unop_to_string : unop -> string

type expr = { e : expr_node; epos : pos }

and expr_node =
  | Eint of int
  | Ereal of float
  | Ebool of bool
  | Evar of string
  | Ebin of binop * expr * expr
  | Eun of unop * expr

type stmt = { s : stmt_node; spos : pos }

and stmt_node =
  | Sassign of string * expr
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Srepeat of stmt list * expr  (** body, until-condition *)
  | Sfor of string * expr * expr * stmt list  (** var, from, to (inclusive), body *)
  | Scall of string * expr list
      (** procedure call; removed by {!Inline.expand} before type
          checking. Arguments bound to [output] parameters must be bare
          variable references. *)

type port_dir = Input | Output

type port = { pname : string; pdir : port_dir; pty : ty }

type decl = { vname : string; vty : ty }

(** A procedure: parameters use the same [input]/[output] structure as
    module ports; the body may declare locals. Procedures are expanded
    inline at every call site (the paper's "inline expansion of
    procedures") — they never survive into the CDFG. *)
type proc_def = {
  prname : string;
  prparams : port list;
  prvars : decl list;
  prbody : stmt list;
}

type program = {
  mname : string;  (** module name *)
  ports : port list;
  procs : proc_def list;
  vars : decl list;
  body : stmt list;
}

(** Errors raised by the frontend (lexer, parser, type checker). *)
exception Frontend_error of pos * string

val error : pos -> string -> 'a
(** Raise {!Frontend_error}. *)
