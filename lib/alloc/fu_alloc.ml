open Hls_cdfg

type op_ref = { bid : Cfg.bid; nid : Dfg.nid; cls : Op.fu_class; step : int }

type source =
  | From_var of string
  | From_const of int
  | From_temp of Cfg.bid * Dfg.nid
  | From_wire of Cfg.bid * Dfg.nid

type instance = { fu_id : int; fu_cls : Op.fu_class; ops : op_ref list }

(* The op → unit lookup is a hashtable, not a closure, so a finished
   allocation — and the design containing it — can be marshalled into
   the persistent design cache. *)
type t = { instances : instance list; op_units : (Cfg.bid * Dfg.nid, int) Hashtbl.t }

let of_op t (bid, nid) =
  match Hashtbl.find_opt t.op_units (bid, nid) with
  | Some id -> id
  | None ->
      invalid_arg
        (Printf.sprintf "Fu_alloc: operation b%d.%%%d is not allocated to any unit" bid nid)

let collect ?lifetimes cs =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  List.concat_map
    (fun bid ->
      let g = Cfg.dfg cfg bid in
      let by_step =
        match lifetimes with
        | Some lt -> Lifetime.by_step lt bid
        | None -> Hls_sched.Schedule.by_step (Hls_sched.Cfg_sched.block_schedule cs bid)
      in
      List.concat
        (Array.to_list
           (Array.mapi
              (fun step nids ->
                List.map (fun nid -> { bid; nid; cls = Dfg.fu_class_of g nid; step }) nids)
              by_step)))
    (Cfg.block_ids cfg)

let source_of lt bid nid =
  let g = Cfg.dfg (Hls_sched.Cfg_sched.cfg (Lifetime.schedule lt)) bid in
  match Dfg.op g nid with
  | Op.Const c -> From_const c
  | Op.Read v -> (
      match Lifetime.storage lt bid nid with
      | Lifetime.Temp _ -> From_temp (bid, nid)
      | Lifetime.In_variable _ | Lifetime.No_storage -> From_var v)
  | _ when Dfg.occupies_step g nid -> (
      match Lifetime.storage lt bid nid with
      | Lifetime.In_variable v -> From_var v
      | Lifetime.Temp _ -> From_temp (bid, nid)
      | Lifetime.No_storage ->
          (* consumed only combinationally; treated as direct wiring *)
          From_wire (bid, nid))
  | _ -> From_wire (bid, nid)

let make_lookup instances =
  let table = Hashtbl.create 64 in
  List.iter
    (fun inst ->
      List.iter (fun r -> Hashtbl.replace table (r.bid, r.nid) inst.fu_id) inst.ops)
    instances;
  table

let by_clique ?lifetimes cs =
  let ops = Array.of_list (collect ?lifetimes cs) in
  let n = Array.length ops in
  let compatible i j =
    let a = ops.(i) and b = ops.(j) in
    a.cls = b.cls && (a.bid <> b.bid || a.step <> b.step)
  in
  let groups = Clique.partition ~n ~compatible in
  let instances =
    List.mapi
      (fun fu_id members ->
        let refs = List.map (fun i -> ops.(i)) members in
        let fu_cls = match refs with r :: _ -> r.cls | [] -> Op.C_alu in
        { fu_id; fu_cls; ops = refs })
      groups
  in
  { instances; op_units = make_lookup instances }

(* mutable instance state during greedy construction *)
type building = {
  b_id : int;
  b_cls : Op.fu_class;
  mutable b_ops : op_ref list;
  mutable b_inputs : source list array;  (* per port position *)
  mutable b_arity : int;
}

let greedy ?(selection = `Min_mux) ?lifetimes cs =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let ops = collect ?lifetimes cs in
  let instances : building list ref = ref [] in
  let next_id = ref 0 in
  (* operand sources only steer the mux-aware choice: first fit never
     reads them, so it skips the lifetime table too *)
  let arg_sources =
    match selection with
    | `First_fit -> fun _ -> []
    | `Min_mux ->
        let lt = match lifetimes with Some lt -> lt | None -> Lifetime.table cs in
        fun r -> List.map (fun a -> source_of lt r.bid a) (Dfg.args (Cfg.dfg cfg r.bid) r.nid)
  in
  let busy inst r = List.exists (fun o -> o.bid = r.bid && o.step = r.step) inst.b_ops in
  let added_cost inst srcs =
    List.mapi
      (fun pos src ->
        if pos >= inst.b_arity then 0
        else begin
          let have = inst.b_inputs.(pos) in
          if have = [] || List.mem src have then 0 else 1
        end)
      srcs
    |> List.fold_left ( + ) 0
  in
  let commit inst r srcs =
    inst.b_ops <- r :: inst.b_ops;
    let arity = List.length srcs in
    if arity > inst.b_arity then begin
      let inputs = Array.make arity [] in
      Array.blit inst.b_inputs 0 inputs 0 inst.b_arity;
      inst.b_inputs <- inputs;
      inst.b_arity <- arity
    end;
    List.iteri
      (fun pos src ->
        if not (List.mem src inst.b_inputs.(pos)) then
          inst.b_inputs.(pos) <- src :: inst.b_inputs.(pos))
      srcs
  in
  List.iter
    (fun r ->
      let srcs = arg_sources r in
      let candidates =
        List.filter (fun inst -> inst.b_cls = r.cls && not (busy inst r)) !instances
      in
      let chosen =
        match selection with
        | `First_fit -> (
            match List.sort (fun a b -> compare a.b_id b.b_id) candidates with
            | c :: _ -> Some c
            | [] -> None)
        | `Min_mux -> (
            match
              List.sort
                (fun a b -> compare (added_cost a srcs, a.b_id) (added_cost b srcs, b.b_id))
                candidates
            with
            | c :: _ -> Some c
            | [] -> None)
      in
      match chosen with
      | Some inst -> commit inst r srcs
      | None ->
          let inst =
            {
              b_id = !next_id;
              b_cls = r.cls;
              b_ops = [];
              b_inputs = [||];
              b_arity = 0;
            }
          in
          incr next_id;
          instances := !instances @ [ inst ];
          commit inst r srcs)
    ops;
  let instances =
    List.map
      (fun b -> { fu_id = b.b_id; fu_cls = b.b_cls; ops = List.rev b.b_ops })
      !instances
  in
  { instances; op_units = make_lookup instances }

let n_units t = List.length t.instances

let mux_inputs cs t =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let lt = Lifetime.table cs in
  List.fold_left
    (fun acc inst ->
      (* distinct sources per port over all ops bound to the unit *)
      let ports : (int, source list) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun r ->
          let g = Cfg.dfg cfg r.bid in
          List.iteri
            (fun pos a ->
              let src = source_of lt r.bid a in
              let have = try Hashtbl.find ports pos with Not_found -> [] in
              if not (List.mem src have) then Hashtbl.replace ports pos (src :: have))
            (Dfg.args g r.nid))
        inst.ops;
      Hashtbl.fold (fun _ srcs acc -> acc + max 0 (List.length srcs - 1)) ports acc)
    0 t.instances

let pp ppf t =
  List.iter
    (fun inst ->
      Format.fprintf ppf "FU%d (%s): %s@." inst.fu_id
        (Op.fu_class_to_string inst.fu_cls)
        (String.concat ", "
           (List.map
              (fun r -> Printf.sprintf "b%d.%%%d@s%d" r.bid r.nid r.step)
              inst.ops)))
    t.instances
