type pos = { line : int; col : int }

let dummy_pos = { line = 0; col = 0 }

type ty = Tbool | Tint of int | Tfix of int * int

let equal_ty a b =
  match (a, b) with
  | Tbool, Tbool -> true
  | Tint w1, Tint w2 -> w1 = w2
  | Tfix (i1, f1), Tfix (i2, f2) -> i1 = i2 && f1 = f2
  | (Tbool | Tint _ | Tfix _), _ -> false

let ty_to_string = function
  | Tbool -> "bool"
  | Tint w -> Printf.sprintf "int<%d>" w
  | Tfix (i, f) -> Printf.sprintf "fix<%d,%d>" i f

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | And | Or | Xor
  | Eq | Ne | Lt | Le | Gt | Ge

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "mod"
  | Shl -> "<<"
  | Shr -> ">>"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let is_comparison = function
  | Eq | Ne | Lt | Le | Gt | Ge -> true
  | Add | Sub | Mul | Div | Mod | Shl | Shr | And | Or | Xor -> false

type unop = Neg | Not

let unop_to_string = function Neg -> "-" | Not -> "not"

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
  | Srepeat of stmt list * expr
  | Sfor of string * expr * expr * stmt list
  | Scall of string * expr list

type port_dir = Input | Output

type port = { pname : string; pdir : port_dir; pty : ty }

type decl = { vname : string; vty : ty }

type proc_def = {
  prname : string;
  prparams : port list;
  prvars : decl list;
  prbody : stmt list;
}

type program = {
  mname : string;
  ports : port list;
  procs : proc_def list;
  vars : decl list;
  body : stmt list;
}

exception Frontend_error of pos * string

let error pos msg = raise (Frontend_error (pos, msg))
