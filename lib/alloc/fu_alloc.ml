open Hls_cdfg

type op_ref = { bid : Cfg.bid; nid : Dfg.nid; cls : Op.fu_class; step : int }

type source =
  | From_var of string
  | From_const of int
  | From_temp of Cfg.bid * Dfg.nid
  | From_wire of Cfg.bid * Dfg.nid

type instance = { fu_id : int; fu_cls : Op.fu_class; ops : op_ref list }

(* The op → unit lookup is data, not a closure, so a finished
   allocation — and the design containing it — can be marshalled into
   the persistent design cache. *)
type t = { instances : instance list; units : int array array }

let of_op t bid nid =
  let u =
    if bid >= 0 && bid < Array.length t.units && nid >= 0 && nid < Array.length t.units.(bid)
    then t.units.(bid).(nid)
    else -1
  in
  if u < 0 then
    invalid_arg
      (Printf.sprintf "Fu_alloc: operation b%d.%%%d is not allocated to any unit" bid nid)
  else u

let make cs instances =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let units =
    Array.init (Cfg.n_blocks cfg) (fun bid -> Array.make (Dfg.n_nodes (Cfg.dfg cfg bid)) (-1))
  in
  List.iter
    (fun inst -> List.iter (fun r -> units.(r.bid).(r.nid) <- inst.fu_id) inst.ops)
    instances;
  { instances; units }

(* [f] on every step-occupying operation, in (block, step, node) order *)
let iter_ops ?lifetimes cs f =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  for bid = 0 to Cfg.n_blocks cfg - 1 do
    let g = Cfg.dfg cfg bid in
    let by_step =
      match lifetimes with
      | Some lt -> Lifetime.by_step lt bid
      | None -> Hls_sched.Schedule.by_step (Hls_sched.Cfg_sched.block_schedule cs bid)
    in
    Array.iteri
      (fun step nids ->
        List.iter (fun nid -> f { bid; nid; cls = Dfg.fu_class_of g nid; step }) nids)
      by_step
  done

let collect ?lifetimes cs =
  let acc = ref [] in
  iter_ops ?lifetimes cs (fun r -> acc := r :: !acc);
  List.rev !acc

let source_of lt bid nid =
  let sched = Hls_sched.Cfg_sched.block_schedule (Lifetime.schedule lt) bid in
  match Dfg.op (Hls_sched.Schedule.dfg sched) nid with
  | Op.Const c -> From_const c
  | Op.Read v -> (
      match Lifetime.storage lt bid nid with
      | Lifetime.Temp _ -> From_temp (bid, nid)
      | Lifetime.In_variable _ | Lifetime.No_storage -> From_var v)
  | _ when Hls_sched.Schedule.occupying_step sched nid >= 0 -> (
      match Lifetime.storage lt bid nid with
      | Lifetime.In_variable v -> From_var v
      | Lifetime.Temp _ -> From_temp (bid, nid)
      | Lifetime.No_storage ->
          (* consumed only combinationally; treated as direct wiring *)
          From_wire (bid, nid))
  | _ -> From_wire (bid, nid)

let same_source a b =
  match (a, b) with
  | From_var x, From_var y -> String.equal x y
  | From_const x, From_const y -> x = y
  | From_temp (b1, n1), From_temp (b2, n2) | From_wire (b1, n1), From_wire (b2, n2) ->
      b1 = b2 && n1 = n2
  | (From_var _ | From_const _ | From_temp _ | From_wire _), _ -> false

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
  make cs instances

(* mutable instance state during greedy construction *)
type building = {
  b_id : int;
  b_cls : Op.fu_class;
  mutable b_ops : op_ref list;
  mutable b_inputs : source list array;  (* per port position *)
  mutable b_bid : int;  (* (block, step) of the last op committed *)
  mutable b_step : int;
}

let rec has_source src = function [] -> false | s :: rest -> same_source src s || has_source src rest

(* inputs [srcs] (from port [pos] on) would add to the unit's muxes *)
let rec added_cost inputs pos srcs =
  match srcs with
  | [] -> 0
  | src :: rest ->
      let grows =
        pos < Array.length inputs
        && match inputs.(pos) with [] -> false | have -> not (has_source src have)
      in
      (if grows then 1 else 0) + added_cost inputs (pos + 1) rest

(* ops arrive in (block, step) order, so a unit is busy in a slot iff
   its last op is in that slot (a new unit's slot is (-1, -1)) *)
let free_for inst (r : op_ref) =
  inst.b_cls = r.cls && (inst.b_bid <> r.bid || inst.b_step <> r.step)

(* the free unit of the class with the least added cost (first fit:
   cost 0 for all), ties to the lowest id; [insts] is newest first *)
let rec choose selection r srcs best best_cost = function
  | [] -> best
  | inst :: rest ->
      if free_for inst r then
        let cost = match selection with `First_fit -> 0 | `Min_mux -> added_cost inst.b_inputs 0 srcs in
        if cost <= best_cost then choose selection r srcs (Some inst) cost rest
        else choose selection r srcs best best_cost rest
      else choose selection r srcs best best_cost rest

let commit inst (r : op_ref) srcs =
  inst.b_ops <- r :: inst.b_ops;
  inst.b_bid <- r.bid;
  inst.b_step <- r.step;
  let arity = List.length srcs in
  if arity > Array.length inst.b_inputs then begin
    let inputs = Array.make arity [] in
    Array.blit inst.b_inputs 0 inputs 0 (Array.length inst.b_inputs);
    inst.b_inputs <- inputs
  end;
  List.iteri
    (fun pos src ->
      if not (has_source src inst.b_inputs.(pos)) then
        inst.b_inputs.(pos) <- src :: inst.b_inputs.(pos))
    srcs

let greedy ?(selection = `Min_mux) ?lifetimes cs =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  (* newest first; ids are creation order *)
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
  iter_ops ?lifetimes cs (fun r ->
      let srcs = arg_sources r in
      match choose selection r srcs None max_int !instances with
      | Some inst -> commit inst r srcs
      | None ->
          let inst =
            { b_id = !next_id; b_cls = r.cls; b_ops = []; b_inputs = [||]; b_bid = -1; b_step = -1 }
          in
          incr next_id;
          instances := inst :: !instances;
          commit inst r srcs);
  let instances =
    List.rev_map
      (fun b -> { fu_id = b.b_id; fu_cls = b.b_cls; ops = List.rev b.b_ops })
      !instances
  in
  make cs instances

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
              if not (has_source src have) then Hashtbl.replace ports pos (src :: have))
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
