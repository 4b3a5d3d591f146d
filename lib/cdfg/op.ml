open Hls_util

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type t =
  | Const of int
  | Read of string
  | Write of string
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | And | Or | Xor | Not | Neg
  | Cmp of cmp
  | Incr | Decr
  | Zdetect
  | Mux

let cmp_to_string = function
  | Ceq -> "="
  | Cne -> "<>"
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

let to_string = function
  | Const v -> Printf.sprintf "const(%d)" v
  | Read name -> Printf.sprintf "read(%s)" name
  | Write name -> Printf.sprintf "write(%s)" name
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
  | Not -> "not"
  | Neg -> "neg"
  | Cmp c -> "cmp" ^ cmp_to_string c
  | Incr -> "incr"
  | Decr -> "decr"
  | Zdetect -> "zdetect"
  | Mux -> "mux"

let pp ppf op = Format.pp_print_string ppf (to_string op)

let equal (a : t) (b : t) = a = b

let of_binop (op : Hls_lang.Ast.binop) =
  match op with
  | Hls_lang.Ast.Add -> Add
  | Hls_lang.Ast.Sub -> Sub
  | Hls_lang.Ast.Mul -> Mul
  | Hls_lang.Ast.Div -> Div
  | Hls_lang.Ast.Mod -> Mod
  | Hls_lang.Ast.Shl -> Shl
  | Hls_lang.Ast.Shr -> Shr
  | Hls_lang.Ast.And -> And
  | Hls_lang.Ast.Or -> Or
  | Hls_lang.Ast.Xor -> Xor
  | Hls_lang.Ast.Eq -> Cmp Ceq
  | Hls_lang.Ast.Ne -> Cmp Cne
  | Hls_lang.Ast.Lt -> Cmp Clt
  | Hls_lang.Ast.Le -> Cmp Cle
  | Hls_lang.Ast.Gt -> Cmp Cgt
  | Hls_lang.Ast.Ge -> Cmp Cge

let arity = function
  | Const _ | Read _ -> 0
  | Write _ | Not | Neg | Incr | Decr | Zdetect -> 1
  | Add | Sub | Mul | Div | Mod | Shl | Shr | And | Or | Xor | Cmp _ -> 2
  | Mux -> 3

type fu_class = C_alu | C_mul | C_div | C_shift | C_free | C_none

let fu_class_to_string = function
  | C_alu -> "alu"
  | C_mul -> "mul"
  | C_div -> "div"
  | C_shift -> "shift"
  | C_free -> "free"
  | C_none -> "none"

let occupying_classes = [ C_alu; C_mul; C_div; C_shift ]

let occupies = function
  | C_alu | C_mul | C_div | C_shift -> true
  | C_free | C_none -> false

let base_class = function
  | Const _ | Read _ | Write _ -> C_none
  | Add | Sub | And | Or | Xor | Not | Neg | Cmp _ | Incr | Decr -> C_alu
  | Mul -> C_mul
  | Div | Mod -> C_div
  | Shl | Shr -> C_shift
  | Zdetect | Mux -> C_free

(* ---- evaluation ---- *)

(* Also the width/format authority for the range analysis and datapath. *)
let fmt_of (ty : Hls_lang.Ast.ty) =
  match ty with
  | Hls_lang.Ast.Tbool -> Fixedpt.format ~int_bits:1 ~frac_bits:0
  | Hls_lang.Ast.Tint w -> Fixedpt.format ~int_bits:w ~frac_bits:0
  | Hls_lang.Ast.Tfix (i, f) -> Fixedpt.format ~int_bits:i ~frac_bits:f

let bits_of (ty : Hls_lang.Ast.ty) =
  match ty with
  | Hls_lang.Ast.Tbool -> 1
  | Hls_lang.Ast.Tint w -> w
  | Hls_lang.Ast.Tfix (i, f) -> i + f

let bool_of v = v <> 0

let eval ty op args =
  let fmt = fmt_of ty in
  let arg1 () = match args with [ a ] -> a | _ -> invalid_arg "Op.eval: arity" in
  let arg2 () = match args with [ a; b ] -> (a, b) | _ -> invalid_arg "Op.eval: arity" in
  match op with
  | Const v -> Fixedpt.wrap fmt v
  | Read _ -> invalid_arg "Op.eval: Read has no dataflow evaluation"
  | Write _ -> Fixedpt.wrap fmt (arg1 ())
  | Add ->
      let a, b = arg2 () in
      Fixedpt.add fmt a b
  | Sub ->
      let a, b = arg2 () in
      Fixedpt.sub fmt a b
  | Mul ->
      let a, b = arg2 () in
      Fixedpt.mul fmt a b
  | Div ->
      let a, b = arg2 () in
      Fixedpt.div fmt a b
  | Mod ->
      let a, b = arg2 () in
      if b = 0 then raise Division_by_zero;
      Fixedpt.wrap fmt (a mod b)
  | Shl ->
      let a, b = arg2 () in
      Fixedpt.shift_left fmt a b
  | Shr ->
      let a, b = arg2 () in
      Fixedpt.shift_right fmt a b
  | And ->
      let a, b = arg2 () in
      Fixedpt.wrap fmt (a land b)
  | Or ->
      let a, b = arg2 () in
      Fixedpt.wrap fmt (a lor b)
  | Xor ->
      let a, b = arg2 () in
      Fixedpt.wrap fmt (a lxor b)
  | Not ->
      (* logical complement on bool, bitwise on ints *)
      let a = arg1 () in
      (match ty with
      | Hls_lang.Ast.Tbool -> if bool_of a then 0 else 1
      | Hls_lang.Ast.Tint _ | Hls_lang.Ast.Tfix _ -> Fixedpt.wrap fmt (lnot a))
  | Neg -> Fixedpt.neg fmt (arg1 ())
  | Cmp c ->
      (* signed comparison on raw patterns; identical fixed formats compare
         correctly this way *)
      let a, b = arg2 () in
      let r =
        match c with
        | Ceq -> a = b
        | Cne -> a <> b
        | Clt -> a < b
        | Cle -> a <= b
        | Cgt -> a > b
        | Cge -> a >= b
      in
      if r then 1 else 0
  | Incr -> Fixedpt.add fmt (arg1 ()) (Fixedpt.of_int fmt 1)
  | Decr -> Fixedpt.sub fmt (arg1 ()) (Fixedpt.of_int fmt 1)
  | Zdetect -> if arg1 () = 0 then 1 else 0
  | Mux -> (
      match args with
      | [ c; a; b ] -> Fixedpt.wrap fmt (if bool_of c then a else b)
      | _ -> invalid_arg "Op.eval: arity")

(* Compiled evaluation: the format resolution and operator dispatch above
   happen once, returning a closure over an argument buffer. Each closure
   computes exactly what [eval] computes (same [Fixedpt] calls, same
   exceptions), so compiled and interpreted simulation agree bit for bit. *)
let compile_eval ty op =
  let fmt = fmt_of ty in
  let a1 (a : int array) =
    if Array.length a <> 1 then invalid_arg "Op.eval: arity";
    a.(0)
  in
  let chk2 (a : int array) = if Array.length a <> 2 then invalid_arg "Op.eval: arity" in
  match op with
  | Const v -> fun _ -> Fixedpt.wrap fmt v
  | Read _ -> fun _ -> invalid_arg "Op.eval: Read has no dataflow evaluation"
  | Write _ -> fun a -> Fixedpt.wrap fmt (a1 a)
  | Add -> fun a -> chk2 a; Fixedpt.add fmt a.(0) a.(1)
  | Sub -> fun a -> chk2 a; Fixedpt.sub fmt a.(0) a.(1)
  | Mul -> fun a -> chk2 a; Fixedpt.mul fmt a.(0) a.(1)
  | Div -> fun a -> chk2 a; Fixedpt.div fmt a.(0) a.(1)
  | Mod ->
      fun a ->
        chk2 a;
        if a.(1) = 0 then raise Division_by_zero;
        Fixedpt.wrap fmt (a.(0) mod a.(1))
  | Shl -> fun a -> chk2 a; Fixedpt.shift_left fmt a.(0) a.(1)
  | Shr -> fun a -> chk2 a; Fixedpt.shift_right fmt a.(0) a.(1)
  | And -> fun a -> chk2 a; Fixedpt.wrap fmt (a.(0) land a.(1))
  | Or -> fun a -> chk2 a; Fixedpt.wrap fmt (a.(0) lor a.(1))
  | Xor -> fun a -> chk2 a; Fixedpt.wrap fmt (a.(0) lxor a.(1))
  | Not -> (
      match ty with
      | Hls_lang.Ast.Tbool -> fun a -> if bool_of (a1 a) then 0 else 1
      | Hls_lang.Ast.Tint _ | Hls_lang.Ast.Tfix _ ->
          fun a -> Fixedpt.wrap fmt (lnot (a1 a)))
  | Neg -> fun a -> Fixedpt.neg fmt (a1 a)
  | Cmp c ->
      let test : int -> int -> bool =
        match c with
        | Ceq -> ( = )
        | Cne -> ( <> )
        | Clt -> ( < )
        | Cle -> ( <= )
        | Cgt -> ( > )
        | Cge -> ( >= )
      in
      fun a ->
        chk2 a;
        if test a.(0) a.(1) then 1 else 0
  | Incr ->
      let one = Fixedpt.of_int fmt 1 in
      fun a -> Fixedpt.add fmt (a1 a) one
  | Decr ->
      let one = Fixedpt.of_int fmt 1 in
      fun a -> Fixedpt.sub fmt (a1 a) one
  | Zdetect -> fun a -> if a1 a = 0 then 1 else 0
  | Mux ->
      fun a ->
        if Array.length a <> 3 then invalid_arg "Op.eval: arity";
        Fixedpt.wrap fmt (if bool_of a.(0) then a.(1) else a.(2))
