(* Test and bench oracle: the tree-walking behavioral interpreter that
   Hls_sim.Beh_sim's staged simulator replaced. It looks every variable
   up by name in a hash table and builds an argument list and a
   fixed-point format per operator. Raises Hls_sim.Beh_sim.Sim_error
   with the same messages, so differential tests compare outcomes
   directly. *)

open Hls_util
open Hls_lang
open Hls_lang.Typed

let error msg = raise (Hls_sim.Beh_sim.Sim_error msg)
let fmt_of_ty = Hls_cdfg.Op.fmt_of

let run ?(fuel = 1_000_000) (p : tprogram) ~inputs =
  let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (v, ty) -> Hashtbl.replace env v (match List.assoc_opt v inputs with
      | Some raw -> Fixedpt.wrap (fmt_of_ty ty) raw
      | None -> 0))
    (Typed.all_vars p);
  let fuel = ref fuel in
  let spend () =
    decr fuel;
    if !fuel < 0 then error "out of fuel (possible non-terminating loop)"
  in
  let rec eval (e : texpr) =
    match e.te with
    | TEint n -> (
        match e.ty with
        | Ast.Tfix _ -> Fixedpt.of_int (fmt_of_ty e.ty) n
        | Ast.Tint _ | Ast.Tbool -> Fixedpt.wrap (fmt_of_ty e.ty) n)
    | TEreal x -> Fixedpt.of_float (fmt_of_ty e.ty) x
    | TEbool b -> if b then 1 else 0
    | TEvar v -> Hashtbl.find env v
    | TEbin (op, a, b) -> (
        let va = eval a and vb = eval b in
        try Hls_cdfg.Op.eval e.ty (Hls_cdfg.Op.of_binop op) [ va; vb ]
        with Division_by_zero -> error "division by zero")
    | TEun (Ast.Neg, a) -> Hls_cdfg.Op.eval e.ty Hls_cdfg.Op.Neg [ eval a ]
    | TEun (Ast.Not, a) -> Hls_cdfg.Op.eval e.ty Hls_cdfg.Op.Not [ eval a ]
  in
  let assign v value =
    let ty = Typed.var_ty p v in
    Hashtbl.replace env v (Fixedpt.wrap (fmt_of_ty ty) value)
  in
  let truthy e = eval e <> 0 in
  let rec exec st =
    spend ();
    match st with
    | TSassign (v, rhs) -> assign v (eval rhs)
    | TSif (c, then_, else_) -> List.iter exec (if truthy c then then_ else else_)
    | TSwhile (c, body) ->
        while truthy c do
          spend ();
          List.iter exec body
        done
    | TSrepeat (body, c) ->
        let continue_ = ref true in
        while !continue_ do
          spend ();
          List.iter exec body;
          if truthy c then continue_ := false
        done
    | TSfor (v, from_, to_, body) ->
        assign v (eval from_);
        let limit = eval to_ in
        while Hashtbl.find env v <= limit do
          spend ();
          List.iter exec body;
          assign v (Hashtbl.find env v + 1)
        done
  in
  List.iter exec p.tbody;
  Hashtbl.fold (fun v value acc -> (v, value) :: acc) env [] |> List.sort compare
