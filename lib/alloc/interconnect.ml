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
  reg_wires : wire array;  (* register -> its net *)
}

let resolver ?lifetimes cs ~fu ~regs =
  let lt = match lifetimes with Some lt -> lt | None -> Lifetime.table cs in
  let reg_wires = Array.init (Reg_alloc.n_names regs) (fun r -> W_reg (Reg_alloc.name regs r)) in
  { cs; lt; fu; regs; reg_wires }

let temp_reg r bid nid =
  let reg = Reg_alloc.temp_register_id r.regs bid nid in
  if reg < 0 then invalid_arg (Printf.sprintf "Interconnect: no temp register for b%d.%%%d" bid nid)
  else reg

let var_reg r bid nid =
  Reg_alloc.var_register r.regs (Lifetime.facts r.lt).Cfg_facts.blocks.(bid).Cfg_facts.node_var.(nid)

let resolve r bid nid ~step =
  let sched = Hls_sched.Cfg_sched.block_schedule r.cs bid in
  match Dfg.op (Hls_sched.Schedule.dfg sched) nid with
  | Op.Const c -> W_const c
  | Op.Read _ -> (
      (* an entry read an overwrite moves to a temporary stays in its
         variable's register through the step that latches the move *)
      match Lifetime.storage r.lt bid nid with
      | Lifetime.Temp iv when step > iv.Hls_util.Interval.lo -> r.reg_wires.(temp_reg r bid nid)
      | _ -> r.reg_wires.(var_reg r bid nid))
  | Op.Write _ -> invalid_arg (Printf.sprintf "Interconnect: b%d.%%%d is a write" bid nid)
  | _ -> (
      let s = Hls_sched.Schedule.occupying_step sched nid in
      if s < 0 then W_wire (bid, nid)
      else if step = s then W_fu_out (Fu_alloc.of_op r.fu bid nid)
      else
        match Lifetime.storage r.lt bid nid with
        | Lifetime.In_variable _ ->
            r.reg_wires.(Reg_alloc.var_register r.regs (Lifetime.held_var r.lt bid nid))
        | Lifetime.Temp _ -> r.reg_wires.(temp_reg r bid nid)
        | Lifetime.No_storage ->
            invalid_arg
              (Printf.sprintf "Interconnect: b%d.%%%d read at step %d but not stored" bid nid step))

let iter_latches r bid f =
  let sched = Hls_sched.Cfg_sched.block_schedule r.cs bid in
  let g = Hls_sched.Schedule.dfg sched in
  List.iter
    (fun (_, wnid) ->
      match Dfg.args g wnid with
      | [ a ] -> f (var_reg r bid wnid) a (Hls_sched.Schedule.write_step sched wnid)
      | _ -> invalid_arg (Printf.sprintf "Interconnect: malformed write b%d.%%%d" bid wnid))
    (Lifetime.writes r.lt bid);
  List.iter
    (fun (info : Lifetime.value_info) ->
      match info.Lifetime.storage with
      | Lifetime.Temp iv -> f (temp_reg r bid info.Lifetime.nid) info.Lifetime.nid iv.Hls_util.Interval.lo
      | Lifetime.In_variable _ | Lifetime.No_storage -> ())
    (Lifetime.values r.lt bid)

let transfers ?lifetimes cs ~fu ~regs =
  let r = resolver ?lifetimes cs ~fu ~regs in
  let acc = ref [] in
  for bid = 0 to Cfg.n_blocks (Hls_sched.Cfg_sched.cfg cs) - 1 do
    let sched = Hls_sched.Cfg_sched.block_schedule cs bid in
    let g = Hls_sched.Schedule.dfg sched in
    let at step t_dst nid =
      acc := { t_src = resolve r bid nid ~step; t_dst; t_bid = bid; t_step = step } :: !acc
    in
    for nid = 0 to Dfg.n_nodes g - 1 do
      let step = Hls_sched.Schedule.occupying_step sched nid in
      if step >= 0 then begin
        let unit_id = Fu_alloc.of_op fu bid nid in
        List.iteri (fun pos a -> at step (D_fu_in (unit_id, pos)) a) (Dfg.args g nid)
      end
    done;
    iter_latches r bid (fun reg nid step -> at step (D_reg (Reg_alloc.name regs reg)) nid)
  done;
  List.rev !acc

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
