open Hls_cdfg

type wire =
  | W_fu_out of int
  | W_reg of string
  | W_const of int
  | W_wire of Cfg.bid * Dfg.nid

type dest = D_fu_in of int * int | D_reg of string

type transfer = { t_src : wire; t_dst : dest; t_bid : Cfg.bid; t_step : int }

type resolver = {
  cs : Hls_sched.Cfg_sched.t;
  lt : Lifetime.t;
  fu : Fu_alloc.t;
  regs : Reg_alloc.t;
}

let resolver ?lifetimes cs ~fu ~regs =
  let lt = match lifetimes with Some lt -> lt | None -> Lifetime.table cs in
  { cs; lt; fu; regs }

let temp_reg r bid nid =
  match Reg_alloc.temp_register r.regs bid nid with
  | Some name -> name
  | None -> invalid_arg (Printf.sprintf "Interconnect: no temp register for b%d.%%%d" bid nid)

let resolve r bid nid ~step =
  let g = Cfg.dfg (Hls_sched.Cfg_sched.cfg r.cs) bid in
  match Dfg.op g nid with
  | Op.Const c -> W_const c
  | Op.Read v -> (
      (* an entry read an overwrite moves to a temporary stays in its
         variable's register through the step that latches the move *)
      match Lifetime.storage r.lt bid nid with
      | Lifetime.Temp iv when step > iv.Hls_util.Interval.lo -> W_reg (temp_reg r bid nid)
      | _ -> W_reg (Reg_alloc.register_of_var r.regs v))
  | Op.Write _ -> invalid_arg (Printf.sprintf "Interconnect: b%d.%%%d is a write" bid nid)
  | _ when Dfg.occupies_step g nid -> (
      if step = Hls_sched.Schedule.step_of (Hls_sched.Cfg_sched.block_schedule r.cs bid) nid
      then W_fu_out (Fu_alloc.of_op r.fu (bid, nid))
      else
        match Lifetime.storage r.lt bid nid with
        | Lifetime.In_variable v -> W_reg (Reg_alloc.register_of_var r.regs v)
        | Lifetime.Temp _ -> W_reg (temp_reg r bid nid)
        | Lifetime.No_storage ->
            invalid_arg
              (Printf.sprintf "Interconnect: b%d.%%%d read at step %d but not stored" bid nid step))
  | _ -> W_wire (bid, nid)

let latches r bid =
  let g = Cfg.dfg (Hls_sched.Cfg_sched.cfg r.cs) bid in
  let sched = Hls_sched.Cfg_sched.block_schedule r.cs bid in
  let writes =
    List.map
      (fun (v, wnid) ->
        match Dfg.args g wnid with
        | [ a ] ->
            (Reg_alloc.register_of_var r.regs v, a, Hls_sched.Schedule.write_step sched wnid)
        | _ -> invalid_arg (Printf.sprintf "Interconnect: malformed write b%d.%%%d" bid wnid))
      (Lifetime.writes r.lt bid)
  in
  writes
  @ List.map
      (fun (nid, iv) -> (temp_reg r bid nid, nid, iv.Hls_util.Interval.lo))
      (Lifetime.temps (Lifetime.values r.lt bid))

let transfers ?lifetimes cs ~fu ~regs =
  let r = resolver ?lifetimes cs ~fu ~regs in
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  List.concat_map
    (fun bid ->
      let g = Cfg.dfg cfg bid in
      let sched = Hls_sched.Cfg_sched.block_schedule cs bid in
      let at step t_dst nid =
        { t_src = resolve r bid nid ~step; t_dst; t_bid = bid; t_step = step }
      in
      let operands =
        List.concat_map
          (fun nid ->
            let unit_id = Fu_alloc.of_op fu (bid, nid) in
            let step = Hls_sched.Schedule.step_of sched nid in
            List.mapi (fun pos a -> at step (D_fu_in (unit_id, pos)) a) (Dfg.args g nid))
          (Dfg.compute_ops g)
      in
      operands @ List.map (fun (reg, nid, step) -> at step (D_reg reg) nid) (latches r bid))
    (Cfg.block_ids cfg)

let mux_cost ts =
  let by_dest : (dest, wire list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun t ->
      let have = try Hashtbl.find by_dest t.t_dst with Not_found -> [] in
      if not (List.mem t.t_src have) then Hashtbl.replace by_dest t.t_dst (t.t_src :: have))
    ts;
  Hashtbl.fold (fun _ srcs acc -> acc + max 0 (List.length srcs - 1)) by_dest 0

let bus_allocation ts =
  let arr = Array.of_list ts in
  let n = Array.length arr in
  let compatible i j =
    let a = arr.(i) and b = arr.(j) in
    (a.t_bid, a.t_step) <> (b.t_bid, b.t_step) || a.t_src = b.t_src
  in
  let groups = Clique.partition ~n ~compatible in
  let bus_groups = List.map (List.map (fun i -> arr.(i))) groups in
  (bus_groups, List.length bus_groups)

let wire_to_string = function
  | W_fu_out id -> Printf.sprintf "fu%d_out" id
  | W_reg name -> name
  | W_const c -> string_of_int c
  | W_wire (b, n) -> Printf.sprintf "wire b%d.%%%d" b n

let dest_to_string = function
  | D_fu_in (id, pos) -> Printf.sprintf "fu%d.%d" id pos
  | D_reg name -> name

let pp_summary ppf ts =
  let _, buses = bus_allocation ts in
  Format.fprintf ppf "%d transfers, mux cost %d, %d buses@." (List.length ts)
    (mux_cost ts) buses
