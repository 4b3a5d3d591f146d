open Hls_util
open Hls_lang
open Hls_lang.Typed

(* Open basic block under construction. [env] maps variables to the node
   currently holding their value; [assigned] lists variables (in first-
   assignment order) that must be written back at block exit. [consts]
   tracks variables whose current value is a known integer constant, for
   trip-count detection. *)
type bb = {
  dfg : Dfg.t;
  env : (string, Dfg.nid) Hashtbl.t;
  mutable assigned : string list;
  consts : (string, int) Hashtbl.t;
}

let fresh_bb () =
  { dfg = Dfg.create (); env = Hashtbl.create 8; assigned = []; consts = Hashtbl.create 8 }

let const_pattern (ty : Ast.ty) = function
  | `Int n -> (
      match ty with
      | Ast.Tbool -> if n <> 0 then 1 else 0
      | Ast.Tint _ -> Fixedpt.wrap (Op.fmt_of ty) n
      | Ast.Tfix _ -> Fixedpt.of_int (Op.fmt_of ty) n)
  | `Real x -> (
      match ty with
      | Ast.Tfix _ -> Fixedpt.of_float (Op.fmt_of ty) x
      | Ast.Tbool | Ast.Tint _ ->
          invalid_arg "Compile: real literal outside fixed-point context")

let read_var prog bb name =
  match Hashtbl.find_opt bb.env name with
  | Some nid -> nid
  | None ->
      let ty = Typed.var_ty prog name in
      let nid = Dfg.add bb.dfg (Op.Read name) [] ty in
      Hashtbl.replace bb.env name nid;
      nid

let assign_var prog bb name nid =
  ignore (Typed.var_ty prog name);
  if not (List.mem name bb.assigned) then bb.assigned <- bb.assigned @ [ name ];
  Hashtbl.replace bb.env name nid

let rec compile_expr prog bb (e : texpr) : Dfg.nid =
  match e.te with
  | TEint n -> Dfg.add bb.dfg (Op.Const (const_pattern e.ty (`Int n))) [] e.ty
  | TEreal x -> Dfg.add bb.dfg (Op.Const (const_pattern e.ty (`Real x))) [] e.ty
  | TEbool b -> Dfg.add bb.dfg (Op.Const (if b then 1 else 0)) [] Ast.Tbool
  | TEvar name -> read_var prog bb name
  | TEbin (op, a, b) ->
      let na = compile_expr prog bb a in
      let nb = compile_expr prog bb b in
      Dfg.add bb.dfg (Op.of_binop op) [ na; nb ] e.ty
  | TEun (Ast.Neg, a) ->
      let na = compile_expr prog bb a in
      Dfg.add bb.dfg Op.Neg [ na ] e.ty
  | TEun (Ast.Not, a) ->
      let na = compile_expr prog bb a in
      Dfg.add bb.dfg Op.Not [ na ] e.ty

(* ---- trip-count detection ---- *)

(* Count assignments to [name] in a statement list, and whether each is the
   increment idiom [name := name + 1]. Nested control counts as opaque. *)
let rec assignments_to name stmts =
  List.concat_map
    (fun st ->
      match st with
      | TSassign (n, rhs) when n = name -> [ `Assign rhs ]
      | TSassign _ -> []
      | TSif (_, a, b) ->
          if assignments_to name a <> [] || assignments_to name b <> [] then [ `Opaque ]
          else []
      | TSwhile (_, body) | TSrepeat (body, _) ->
          if assignments_to name body <> [] then [ `Opaque ] else []
      | TSfor (n, _, _, body) ->
          if n = name || assignments_to name body <> [] then [ `Opaque ] else [])
    stmts

let is_incr_by_one name (rhs : texpr) =
  match rhs.te with
  | TEbin (Ast.Add, { te = TEvar v; _ }, { te = TEint 1; _ }) when v = name -> true
  | TEbin (Ast.Add, { te = TEint 1; _ }, { te = TEvar v; _ }) when v = name -> true
  | _ -> false

(* Exit condition shapes handled: var CMP const. Returns the trip count for
   a loop whose counter starts at [c0] and steps by +1, where [exit_when]
   tells whether the loop stops when the condition is true (repeat/until)
   or false (while). *)
let trips_of_cond ~c0 ~until (cond : texpr) =
  let pick name k =
    (* for repeat..until cond: first counter value AFTER increment that
       satisfies cond ends the loop *)
    match (until, k) with
    | true, _ -> (
        (* until (i OP k); i takes values c0+1, c0+2, ... after each body *)
        match name with
        | Ast.Gt -> Some (k - c0) (* exits when i = k+1 -> k+1-c0 iterations *)
        | Ast.Ge -> Some (k - 1 - c0)
        | Ast.Eq -> Some (k - 1 - c0)
        | _ -> None)
    | false, _ -> (
        (* while (i OP k) do body; i starts at c0 *)
        match name with
        | Ast.Lt -> Some (k - c0)
        | Ast.Le -> Some (k - c0 + 1)
        | Ast.Ne -> Some (k - c0)
        | _ -> None)
  in
  match cond.te with
  | TEbin (op, { te = TEvar _; _ }, { te = TEint k; _ }) -> pick op k
  | _ -> None

let counter_var (cond : texpr) =
  match cond.te with
  | TEbin (_, { te = TEvar v; _ }, { te = TEint _; _ }) -> Some v
  | _ -> None

let detect_trip ~consts ~until cond body =
  match counter_var cond with
  | None -> None
  | Some name -> (
      match Hashtbl.find_opt consts name with
      | None -> None
      | Some c0 -> (
          match assignments_to name body with
          | [ `Assign rhs ] when is_incr_by_one name rhs ->
              let adjust = if until then 1 else 0 in
              (match trips_of_cond ~c0 ~until cond with
              | Some t when t + adjust >= 1 -> Some (t + adjust)
              | _ -> None)
          | _ -> None))

(* ---- statement compilation ---- *)

type ctx = { cfg : Cfg.t; prog : tprogram }

(* Finish the open block: append Write nodes for assigned variables, add
   the block with a placeholder terminator, and return its id. *)
let finish ctx bb term =
  List.iter
    (fun name ->
      let nid = Hashtbl.find bb.env name in
      let ty = Typed.var_ty ctx.prog name in
      ignore (Dfg.add bb.dfg (Op.Write name) [ nid ] ty))
    bb.assigned;
  Cfg.add_block ctx.cfg bb.dfg term

let track_const bb name (rhs : texpr) =
  match rhs.te with
  | TEint n -> Hashtbl.replace bb.consts name n
  | _ -> Hashtbl.remove bb.consts name

let rec compile_seq ctx bb (stmts : tstmt list) : bb =
  match stmts with
  | [] -> bb
  | TSassign (name, rhs) :: rest ->
      let nid = compile_expr ctx.prog bb rhs in
      assign_var ctx.prog bb name nid;
      track_const bb name rhs;
      compile_seq ctx bb rest
  | TSif (cond, then_, else_) :: rest ->
      let cond_nid = compile_expr ctx.prog bb cond in
      let bid_cond = finish ctx bb Cfg.Halt in
      let then_entry = Cfg.n_blocks ctx.cfg in
      let bb_then_end = compile_seq ctx (fresh_bb ()) then_ in
      let bid_then_end = finish ctx bb_then_end Cfg.Halt in
      let else_entry, bid_else_end =
        if else_ = [] then (None, None)
        else begin
          let entry = Cfg.n_blocks ctx.cfg in
          let bb_else_end = compile_seq ctx (fresh_bb ()) else_ in
          (Some entry, Some (finish ctx bb_else_end Cfg.Halt))
        end
      in
      let join = Cfg.n_blocks ctx.cfg in
      let else_target = match else_entry with Some e -> e | None -> join in
      Cfg.set_term ctx.cfg bid_cond (Cfg.Branch (cond_nid, then_entry, else_target));
      Cfg.set_term ctx.cfg bid_then_end (Cfg.Goto join);
      (match bid_else_end with
      | Some b -> Cfg.set_term ctx.cfg b (Cfg.Goto join)
      | None -> ());
      compile_seq ctx (fresh_bb ()) rest
  | TSwhile (cond, body) :: rest ->
      let trip = detect_trip ~consts:bb.consts ~until:false cond body in
      let header = Cfg.n_blocks ctx.cfg + 1 in
      let _bid_pre = finish ctx bb (Cfg.Goto header) in
      let bb_header = fresh_bb () in
      let cond_nid = compile_expr ctx.prog bb_header cond in
      let bid_header = finish ctx bb_header Cfg.Halt in
      let body_entry = Cfg.n_blocks ctx.cfg in
      let bb_body_end = compile_seq ctx (fresh_bb ()) body in
      let bid_body_end = finish ctx bb_body_end (Cfg.Goto bid_header) in
      ignore bid_body_end;
      let exit = Cfg.n_blocks ctx.cfg in
      Cfg.set_term ctx.cfg bid_header (Cfg.Branch (cond_nid, body_entry, exit));
      (match trip with Some t -> Cfg.set_trip_count ctx.cfg bid_header t | None -> ());
      compile_seq ctx (fresh_bb ()) rest
  | TSrepeat (body, cond) :: rest ->
      let trip = detect_trip ~consts:bb.consts ~until:true cond body in
      let body_entry = Cfg.n_blocks ctx.cfg + 1 in
      let _bid_pre = finish ctx bb (Cfg.Goto body_entry) in
      let bb_body_end = compile_seq ctx (fresh_bb ()) body in
      let cond_nid = compile_expr ctx.prog bb_body_end cond in
      let bid_body_end = finish ctx bb_body_end Cfg.Halt in
      let exit = Cfg.n_blocks ctx.cfg in
      Cfg.set_term ctx.cfg bid_body_end (Cfg.Branch (cond_nid, exit, body_entry));
      (match trip with Some t -> Cfg.set_trip_count ctx.cfg body_entry t | None -> ());
      compile_seq ctx (fresh_bb ()) rest
  | TSfor (name, from_, to_, body) :: rest ->
      (* desugar to: name := from; while name <= to do body; name := name+1 end *)
      let var_ty = Typed.var_ty ctx.prog name in
      let cond =
        { te = TEbin (Ast.Le, { te = TEvar name; ty = var_ty }, to_); ty = Ast.Tbool }
      in
      let incr =
        TSassign
          ( name,
            {
              te = TEbin (Ast.Add, { te = TEvar name; ty = var_ty }, { te = TEint 1; ty = var_ty });
              ty = var_ty;
            } )
      in
      let desugared = TSassign (name, from_) :: TSwhile (cond, body @ [ incr ]) :: rest in
      compile_seq ctx bb desugared

let compile (prog : tprogram) : Cfg.t =
  let cfg = Cfg.create () in
  let ctx = { cfg; prog } in
  let bb_end = compile_seq ctx (fresh_bb ()) prog.tbody in
  let _last = finish ctx bb_end Cfg.Halt in
  Cfg.set_entry cfg 0;
  Cfg.validate cfg;
  cfg

let compile_source src =
  let ast = Inline.expand (Parser.parse src) in
  let tprog = Typecheck.check ast in
  (tprog, compile tprog)
