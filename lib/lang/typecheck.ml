open Ast
open Typed

let default_int_width = 32

let is_literal (e : Ast.expr) =
  match e.e with Eint _ | Ereal _ -> true | Ebool _ | Evar _ | Ebin _ | Eun _ -> false

(* Widest common type of two operand types for arithmetic. *)
let join pos a b =
  match (a, b) with
  | Tint w1, Tint w2 -> Tint (max w1 w2)
  | Tfix (i1, f1), Tfix (i2, f2) when i1 = i2 && f1 = f2 -> Tfix (i1, f1)
  | Tfix _, Tfix _ ->
      error pos
        (Printf.sprintf "fixed-point formats differ: %s vs %s" (ty_to_string a)
           (ty_to_string b))
  | _ ->
      error pos
        (Printf.sprintf "operand types do not mix: %s vs %s" (ty_to_string a)
           (ty_to_string b))

let rec infer env (e : Ast.expr) (expected : ty option) : texpr =
  let pos = e.epos in
  match e.e with
  | Eint n -> (
      match expected with
      | Some (Tint _ as t) | Some (Tfix _ as t) -> { te = TEint n; ty = t }
      | Some Tbool -> error pos "integer literal used where a bool is required"
      | None -> { te = TEint n; ty = Tint default_int_width })
  | Ereal x -> (
      match expected with
      | Some (Tfix _ as t) -> { te = TEreal x; ty = t }
      | Some t ->
          error pos
            (Printf.sprintf "real literal used where %s is required" (ty_to_string t))
      | None -> error pos "real literal requires a fixed-point context")
  | Ebool b -> (
      match expected with
      | Some Tbool | None -> { te = TEbool b; ty = Tbool }
      | Some t ->
          error pos
            (Printf.sprintf "boolean literal used where %s is required"
               (ty_to_string t)))
  | Evar name -> (
      match List.assoc_opt name env with
      | Some t -> { te = TEvar name; ty = t }
      | None -> error pos (Printf.sprintf "undeclared identifier %s" name))
  | Eun (Neg, operand) ->
      let t = infer_numeric env operand expected pos in
      { te = TEun (Neg, t); ty = t.ty }
  | Eun (Not, operand) -> (
      let t = infer env operand expected in
      match t.ty with
      | Tbool | Tint _ -> { te = TEun (Not, t); ty = t.ty }
      | Tfix _ -> error pos "'not' does not apply to fixed-point values")
  | Ebin (op, a, b) -> infer_bin env pos op a b expected

and infer_numeric env e expected pos =
  let t = infer env e expected in
  match t.ty with
  | Tint _ | Tfix _ -> t
  | Tbool -> error pos "numeric operand required"

(* Infer the two operands of a binary operator. If one side is a bare
   literal, type the other side first so the literal adopts its type. *)
and infer_pair env pos a b expected =
  if is_literal a && not (is_literal b) then begin
    let tb = infer env b expected in
    let ta = infer env a (Some tb.ty) in
    (ta, tb, join pos ta.ty tb.ty)
  end
  else begin
    let ta = infer env a expected in
    let tb = infer env b (Some ta.ty) in
    (ta, tb, join pos ta.ty tb.ty)
  end

and infer_bin env pos op a b expected =
  match op with
  | Add | Sub | Mul | Div | Mod ->
      let expected_num =
        match expected with Some (Tint _ | Tfix _) -> expected | Some Tbool | None -> None
      in
      let ta, tb, ty = infer_pair env pos a b expected_num in
      (match ty with
      | Tint _ | Tfix _ -> { te = TEbin (op, ta, tb); ty }
      | Tbool -> error pos "arithmetic on booleans")
  | Shl | Shr ->
      let ta = infer_numeric env a expected pos in
      let tb = infer env b (Some (Tint 6)) in
      (match tb.ty with
      | Tint _ -> { te = TEbin (op, ta, tb); ty = ta.ty }
      | Tbool | Tfix _ -> error pos "shift amount must be an integer")
  | And | Or | Xor -> (
      let ta, tb, ty =
        (* booleans have no literal form except true/false, so plain pair
           inference works for both the logical and bitwise reading *)
        infer_pair_logic env pos a b expected
      in
      match ty with
      | Tbool | Tint _ -> { te = TEbin (op, ta, tb); ty }
      | Tfix _ -> error pos "bitwise logic does not apply to fixed-point values")
  | Eq | Ne | Lt | Le | Gt | Ge ->
      let ta, tb, _ = infer_pair env pos a b None in
      { te = TEbin (op, ta, tb); ty = Tbool }

and infer_pair_logic env pos a b expected =
  let ta = infer env a expected in
  let tb = infer env b (Some ta.ty) in
  match (ta.ty, tb.ty) with
  | Tbool, Tbool -> (ta, tb, Tbool)
  | Tint _, Tint _ -> (ta, tb, join pos ta.ty tb.ty)
  | _ ->
      error pos
        (Printf.sprintf "logic operands do not mix: %s vs %s" (ty_to_string ta.ty)
           (ty_to_string tb.ty))

let check (p : Ast.program) : tprogram =
  (* duplicate-declaration check *)
  let names =
    List.map (fun (port : port) -> port.pname) p.ports
    @ List.map (fun (d : decl) -> d.vname) p.vars
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        error dummy_pos (Printf.sprintf "duplicate declaration of %s" n)
      else Hashtbl.add seen n ())
    names;
  let env =
    List.map (fun (port : port) -> (port.pname, port.pty)) p.ports
    @ List.map (fun (d : decl) -> (d.vname, d.vty)) p.vars
  in
  let inputs =
    List.filter_map
      (fun (port : port) -> if port.pdir = Input then Some port.pname else None)
      p.ports
  in
  let check_target pos name =
    match List.assoc_opt name env with
    | None -> error pos (Printf.sprintf "assignment to undeclared identifier %s" name)
    | Some t ->
        if List.mem name inputs then
          error pos (Printf.sprintf "assignment to input port %s" name)
        else t
  in
  let check_cond env (e : Ast.expr) =
    let t = infer env e (Some Tbool) in
    match t.ty with
    | Tbool -> t
    | ty ->
        error e.epos
          (Printf.sprintf "condition must be bool, found %s" (ty_to_string ty))
  in
  let rec check_stmt (st : Ast.stmt) : tstmt =
    let pos = st.spos in
    match st.s with
    | Sassign (name, rhs) ->
        let target_ty = check_target pos name in
        let trhs = infer env rhs (Some target_ty) in
        let ok =
          match (target_ty, trhs.ty) with
          | Tint _, Tint _ -> true (* implicit wrap/extend between int widths *)
          | a, b -> equal_ty a b
        in
        if not ok then
          error pos
            (Printf.sprintf "cannot assign %s to %s : %s" (ty_to_string trhs.ty)
               name
               (ty_to_string target_ty));
        TSassign (name, trhs)
    | Sif (cond, then_, else_) ->
        TSif (check_cond env cond, List.map check_stmt then_, List.map check_stmt else_)
    | Swhile (cond, body) -> TSwhile (check_cond env cond, List.map check_stmt body)
    | Srepeat (body, cond) -> TSrepeat (List.map check_stmt body, check_cond env cond)
    | Scall (name, _) ->
        error pos
          (Printf.sprintf
             "call to %s not expanded (run Inline.expand before type checking)" name)
    | Sfor (name, from_, to_, body) ->
        let target_ty = check_target pos name in
        (match target_ty with
        | Tint _ -> ()
        | t ->
            error pos
              (Printf.sprintf "for-loop variable %s must be an integer, found %s" name
                 (ty_to_string t)));
        let tfrom = infer env from_ (Some target_ty) in
        let tto = infer env to_ (Some target_ty) in
        TSfor (name, tfrom, tto, List.map check_stmt body)
  in
  {
    tname = p.mname;
    tports = p.ports;
    tvars = p.vars;
    tbody = List.map check_stmt p.body;
  }
