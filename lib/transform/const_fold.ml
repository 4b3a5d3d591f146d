open Hls_util
open Hls_cdfg

let zero_pattern _ty = 0

let one_pattern (ty : Hls_lang.Ast.ty) = Fixedpt.of_int (Op.fmt_of ty) 1

let const_of out nid =
  match Dfg.op out nid with Op.Const v -> Some v | _ -> None

(* Per-block rule with a constant-dedup table threaded via closure. *)
let make_rule () : Rewrite.rule =
  let const_table : (string, Dfg.nid) Hashtbl.t = Hashtbl.create 16 in
  fun ~out ~remap:_ _id node ~mapped_args ->
    let ty = node.Dfg.ty in
    let add_const v =
      let v = Fixedpt.wrap (Op.fmt_of ty) v in
      let key = Printf.sprintf "%d:%s" v (Hls_lang.Ast.ty_to_string ty) in
      match Hashtbl.find_opt const_table key with
      | Some nid -> Rewrite.Subst nid
      | None ->
          let nid = Dfg.add out (Op.Const v) [] ty in
          Hashtbl.add const_table key nid;
          Rewrite.Subst nid
    in
    let args_const = List.map (const_of out) mapped_args in
    let all_const =
      List.for_all (function Some _ -> true | None -> false) args_const
    in
    match node.Dfg.op with
    | Op.Const v -> add_const v
    | Op.Read _ | Op.Write _ -> Rewrite.Copy
    | op when all_const && op <> Op.Mux -> (
        (* Mux of three constants also folds, but handled below to share
           the cond-only case *)
        let vals = List.map (function Some v -> v | None -> 0) args_const in
        match Op.eval ty op vals with
        | v -> add_const v
        | exception Division_by_zero -> Rewrite.Copy
        | exception Invalid_argument _ -> Rewrite.Copy)
    | Op.Add -> (
        match (mapped_args, args_const) with
        | [ x; _ ], [ _; Some c ] when c = zero_pattern ty -> Rewrite.Subst x
        | [ _; y ], [ Some c; _ ] when c = zero_pattern ty -> Rewrite.Subst y
        | _ -> Rewrite.Copy)
    | Op.Sub -> (
        match (mapped_args, args_const) with
        | [ x; _ ], [ _; Some c ] when c = zero_pattern ty -> Rewrite.Subst x
        | [ x; y ], _ when x = y -> add_const 0
        | _ -> Rewrite.Copy)
    | Op.Mul -> (
        match (mapped_args, args_const) with
        | [ x; _ ], [ _; Some c ] when c = one_pattern ty -> Rewrite.Subst x
        | [ _; y ], [ Some c; _ ] when c = one_pattern ty -> Rewrite.Subst y
        | [ _; _ ], [ _; Some 0 ] | [ _; _ ], [ Some 0; _ ] -> add_const 0
        | _ -> Rewrite.Copy)
    | Op.Div -> (
        match (mapped_args, args_const) with
        | [ x; _ ], [ _; Some c ] when c = one_pattern ty -> Rewrite.Subst x
        | _ -> Rewrite.Copy)
    | Op.Shl | Op.Shr -> (
        match (mapped_args, args_const) with
        | [ x; _ ], [ _; Some 0 ] -> Rewrite.Subst x
        | _ -> Rewrite.Copy)
    | Op.And | Op.Or -> (
        match mapped_args with [ x; y ] when x = y -> Rewrite.Subst x | _ -> Rewrite.Copy)
    | Op.Xor -> (
        match mapped_args with [ x; y ] when x = y -> add_const 0 | _ -> Rewrite.Copy)
    | Op.Not -> (
        match mapped_args with
        | [ x ] -> (
            match Dfg.node out x with
            | { Dfg.op = Op.Not; args = [ inner ]; ty = ity } when ity = ty ->
                Rewrite.Subst inner
            | _ -> Rewrite.Copy)
        | _ -> Rewrite.Copy)
    | Op.Neg -> (
        match mapped_args with
        | [ x ] -> (
            match Dfg.node out x with
            | { Dfg.op = Op.Neg; args = [ inner ]; ty = ity } when ity = ty ->
                Rewrite.Subst inner
            | _ -> Rewrite.Copy)
        | _ -> Rewrite.Copy)
    | Op.Mux -> (
        match (mapped_args, args_const) with
        | [ _; a; b ], _ when a = b -> Rewrite.Subst a
        | [ _; a; _ ], Some c :: _ when c <> 0 -> Rewrite.Subst a
        | [ _; _; b ], Some 0 :: _ -> Rewrite.Subst b
        | _ -> Rewrite.Copy)
    | Op.Mod | Op.Cmp _ | Op.Incr | Op.Decr | Op.Zdetect -> Rewrite.Copy

let fold_branches cfg =
  List.fold_left
    (fun acc bid ->
      match Cfg.term cfg bid with
      | Cfg.Branch (cond, bt, bf) -> (
          match Dfg.op (Cfg.dfg cfg bid) cond with
          | Op.Const v ->
              Cfg.set_term cfg bid (Cfg.Goto (if v <> 0 then bt else bf));
              true
          | _ -> acc)
      | Cfg.Goto _ | Cfg.Halt -> acc)
    false (Cfg.block_ids cfg)

let run cfg =
  let changed = Rewrite.rewrite_all cfg ~rule:(fun _bid -> make_rule ()) in
  let branch_changed = fold_branches cfg in
  changed || branch_changed

(* Fold with externally proven facts (the range analysis): a node whose
   runtime value is a single known pattern becomes that constant, and a
   branch whose condition is proven becomes a goto. [value bid nid] must
   be the node's value in {e every} execution; it is consulted with the
   node ids of the graph as passed in, before any renumbering. *)
let apply_facts cfg ~value =
  (* branches first: the rewrite below renumbers node ids *)
  let branch_changed =
    List.fold_left
      (fun acc bid ->
        match Cfg.term cfg bid with
        | Cfg.Branch (cond, bt, bf) -> (
            match Dfg.op (Cfg.dfg cfg bid) cond with
            | Op.Const _ -> acc (* fold_branches territory *)
            | _ -> (
                match value bid cond with
                | Some v ->
                    Cfg.set_term cfg bid (Cfg.Goto (if v <> 0 then bt else bf));
                    true
                | None -> acc))
        | Cfg.Goto _ | Cfg.Halt -> acc)
      false (Cfg.block_ids cfg)
  in
  let changed =
    Rewrite.rewrite_all cfg ~rule:(fun bid ->
        let rule = make_rule () in
        fun ~out ~remap id node ~mapped_args ->
          match node.Dfg.op with
          | Op.Const _ | Op.Read _ | Op.Write _ ->
              rule ~out ~remap id node ~mapped_args
          | _ -> (
              match value bid id with
              | Some v when Fixedpt.wrap (Op.fmt_of node.Dfg.ty) v = v ->
                  (* re-enter the shared rule with a constant node so the
                     per-block constant dedup table applies *)
                  rule ~out ~remap id
                    { Dfg.op = Op.Const v; args = []; ty = node.Dfg.ty }
                    ~mapped_args:[]
              | _ -> rule ~out ~remap id node ~mapped_args))
  in
  branch_changed || changed
