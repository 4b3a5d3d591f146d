open Hls_cdfg

type wire =
  | W_fu_out of int
  | W_var of string
  | W_temp of Cfg.bid * Dfg.nid
  | W_wire of Cfg.bid * Dfg.nid
  | W_const of int

type dest =
  | D_fu_in of int * int
  | D_var of string
  | D_temp of Cfg.bid * Dfg.nid

type transfer = { t_src : wire; t_dst : dest; t_bid : Cfg.bid; t_step : int }

let wire_of_source ~regs (src : Fu_alloc.source) =
  match src with
  | Fu_alloc.From_var v -> W_var (Reg_alloc.register_of_var regs v)
  | Fu_alloc.From_const c -> W_const c
  | Fu_alloc.From_temp (bid, nid) -> W_temp (bid, nid)
  | Fu_alloc.From_wire (bid, nid) -> W_wire (bid, nid)

let transfers cs ~fu ~regs =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  (* operand sources and temporary latches both read one table *)
  let lt = Lifetime.table cs in
  let acc = ref [] in
  let emit t = acc := t :: !acc in
  List.iter
    (fun bid ->
      let g = Cfg.dfg cfg bid in
      let sched = Hls_sched.Cfg_sched.block_schedule cs bid in
      (* FU input transfers *)
      List.iter
        (fun nid ->
          let unit_id = Fu_alloc.of_op fu (bid, nid) in
          let step = Hls_sched.Schedule.step_of sched nid in
          List.iteri
            (fun pos a ->
              let src = wire_of_source ~regs (Fu_alloc.source_of lt bid a) in
              emit { t_src = src; t_dst = D_fu_in (unit_id, pos); t_bid = bid; t_step = step })
            (Dfg.args g nid))
        (Dfg.compute_ops g);
      (* the wire that produces a value (for register latching) *)
      let rec producing_wire nid =
        match Dfg.op g nid with
        | Op.Const c -> W_const c
        | Op.Read v -> W_var (Reg_alloc.register_of_var regs v)
        | Op.Write v -> (
            match Dfg.args g nid with
            | [ a ] -> producing_wire a
            | args ->
                invalid_arg
                  (Printf.sprintf
                     "Interconnect: write of %s (b%d.%%%d) has %d arguments, expected 1" v
                     bid nid (List.length args)))
        | _ when Dfg.occupies_step g nid -> W_fu_out (Fu_alloc.of_op fu (bid, nid))
        | _ -> W_wire (bid, nid)
      in
      (* variable register latches *)
      List.iter
        (fun (v, wnid) ->
          let step = Hls_sched.Schedule.write_step sched wnid in
          let src =
            match Dfg.args g wnid with
            | [ a ] -> (
                (* a write-move occupies an ALU slot: physically the value
                   still travels from its storage to the register *)
                match Dfg.op g a with
                | Op.Read w -> W_var (Reg_alloc.register_of_var regs w)
                | Op.Const c -> W_const c
                | _ -> producing_wire a)
            | args ->
                invalid_arg
                  (Printf.sprintf
                     "Interconnect: write of %s (b%d.%%%d) has %d arguments, expected 1" v
                     bid wnid (List.length args))
          in
          emit
            {
              t_src = src;
              t_dst = D_var (Reg_alloc.register_of_var regs v);
              t_bid = bid;
              t_step = step;
            })
        (Dfg.writes g);
      (* temporary register latches, in node-id order *)
      List.iter
        (fun (info : Lifetime.value_info) ->
          match info.Lifetime.storage with
          | Lifetime.Temp iv ->
              let nid = info.Lifetime.nid in
              let src =
                match Dfg.op g nid with
                | Op.Read v -> W_var (Reg_alloc.register_of_var regs v)
                | _ -> W_fu_out (Fu_alloc.of_op fu (bid, nid))
              in
              emit
                {
                  t_src = src;
                  t_dst = D_temp (bid, nid);
                  t_bid = bid;
                  t_step = iv.Hls_util.Interval.lo;
                }
          | Lifetime.In_variable _ | Lifetime.No_storage -> ())
        (Lifetime.values lt bid))
    (Cfg.block_ids cfg);
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

let pp_summary ppf ts =
  let _, buses = bus_allocation ts in
  Format.fprintf ppf "%d transfers, mux cost %d, %d buses@." (List.length ts)
    (mux_cost ts) buses
