open Hls_cdfg
open Hls_alloc
open Diagnostic

let rules =
  [
    ("ALLOC001", "operation bound to a unit of a different class");
    ("ALLOC002", "two operations on one unit in the same (block, step) slot");
    ("ALLOC003", "step-occupying operation bound to no unit");
    ("ALLOC004", "unit binding disagrees with the schedule about a step");
    ("ALLOC005", "overlapping temporary lifetimes share a track");
    ("ALLOC006", "temporary value has no register track");
    ("ALLOC007", "variables that hold values at one step boundary share a register");
    ("ALLOC008", "variables written in the same control step share a register");
    ("ALLOC009", "required data transfer missing from the interconnect");
    ("ALLOC010", "interconnect carries a transfer the design never performs");
  ]

let check_fu cs (fu : Fu_alloc.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let bound : (Cfg.bid * Dfg.nid, int * Op.fu_class * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (inst : Fu_alloc.instance) ->
      let slots = Hashtbl.create 8 in
      List.iter
        (fun (r : Fu_alloc.op_ref) ->
          Hashtbl.replace bound (r.Fu_alloc.bid, r.Fu_alloc.nid)
            (inst.Fu_alloc.fu_id, inst.Fu_alloc.fu_cls, r.Fu_alloc.step);
          if r.Fu_alloc.cls <> inst.Fu_alloc.fu_cls then
            add
              (error Alloc ~code:"ALLOC001" (Fu inst.Fu_alloc.fu_id)
                 "operation b%d.%%%d of class %s bound to a %s unit" r.Fu_alloc.bid
                 r.Fu_alloc.nid
                 (Op.fu_class_to_string r.Fu_alloc.cls)
                 (Op.fu_class_to_string inst.Fu_alloc.fu_cls));
          let slot = (r.Fu_alloc.bid, r.Fu_alloc.step) in
          (match Hashtbl.find_opt slots slot with
          | Some prev ->
              add
                (error Alloc ~code:"ALLOC002" (Fu inst.Fu_alloc.fu_id)
                   "operations b%d.%%%d and b%d.%%%d both execute in block %d step %d"
                   r.Fu_alloc.bid prev r.Fu_alloc.bid r.Fu_alloc.nid r.Fu_alloc.bid
                   r.Fu_alloc.step)
          | None -> ());
          Hashtbl.replace slots slot r.Fu_alloc.nid)
        inst.Fu_alloc.ops)
    fu.Fu_alloc.instances;
  List.iter
    (fun (r : Fu_alloc.op_ref) ->
      match Hashtbl.find_opt bound (r.Fu_alloc.bid, r.Fu_alloc.nid) with
      | None ->
          add
            (error Alloc ~code:"ALLOC003" (Node (r.Fu_alloc.bid, r.Fu_alloc.nid))
               "step-occupying %s operation is bound to no unit"
               (Op.fu_class_to_string r.Fu_alloc.cls))
      | Some (fu_id, _, recorded) ->
          if recorded <> r.Fu_alloc.step then
            add
              (error Alloc ~code:"ALLOC004" (Fu fu_id)
                 "binding records b%d.%%%d at step %d but the schedule places it at step %d"
                 r.Fu_alloc.bid r.Fu_alloc.nid recorded r.Fu_alloc.step))
    (Fu_alloc.collect cs);
  List.rev !ds

let check_registers cs ~temp_track ~groups ~outputs =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (* temporaries: per-block left-edge tracks *)
  let lt = Lifetime.table cs in
  List.iter
    (fun bid ->
      let temps = Lifetime.temps (Lifetime.values lt bid) in
      let by_track : (int, (Dfg.nid * Hls_util.Interval.t) list) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iter
        (fun (nid, iv) ->
          match temp_track bid nid with
          | None ->
              add
                (error Alloc ~code:"ALLOC006" (Node (bid, nid))
                   "value needs a temporary register over steps %d-%d but has no track"
                   iv.Hls_util.Interval.lo iv.Hls_util.Interval.hi)
          | Some track ->
              let have =
                match Hashtbl.find_opt by_track track with Some l -> l | None -> []
              in
              List.iter
                (fun (other, oiv) ->
                  if Hls_util.Interval.overlaps iv oiv then
                    add
                      (error Alloc ~code:"ALLOC005"
                         (Register (Printf.sprintf "tmp%d" track))
                         "b%d.%%%d (steps %d-%d) and b%d.%%%d (steps %d-%d) overlap on one track"
                         bid other oiv.Hls_util.Interval.lo oiv.Hls_util.Interval.hi bid
                         nid iv.Hls_util.Interval.lo iv.Hls_util.Interval.hi))
                have;
              Hashtbl.replace by_track track ((nid, iv) :: have))
        temps)
    (Cfg.block_ids cfg);
  (* variables: the (block, step boundary) points where each variable's
     register must hold a value, and the (block, step) slots it is
     written in. Derived from the schedule alone, not from the
     allocator's lifetime table: an entry read is held from entry until
     its last consumer (through free chains) or the variable's first
     overwrite; a write latches at its step and, when it stores an
     operation's result that is consumed before the next write, holds
     it until that consumer; a variable live into (out of) the block is
     held at entry (from its last write through exit). *)
  let live = Liveness.analyze ~live_at_exit:outputs cfg in
  let holds = Hashtbl.create 16 and write_slots = Hashtbl.create 16 in
  let note tbl v point =
    Hashtbl.replace tbl v (point :: Option.value ~default:[] (Hashtbl.find_opt tbl v))
  in
  List.iter
    (fun bid ->
      let g = Cfg.dfg cfg bid in
      let sched = Hls_sched.Cfg_sched.block_schedule cs bid in
      let n = Hls_sched.Schedule.n_steps sched in
      let consumed = Array.make (Dfg.n_nodes g) 0 in
      let rec consume step id =
        match Dfg.op g id with
        | Op.Read _ -> consumed.(id) <- max consumed.(id) step
        | _ when Dfg.occupies_step g id -> consumed.(id) <- max consumed.(id) step
        | _ -> List.iter (consume step) (Dfg.args g id)
      in
      Dfg.iter
        (fun id node ->
          match node.Dfg.op with
          | Op.Write _ ->
              List.iter (consume (Hls_sched.Schedule.write_step sched id)) node.Dfg.args
          | _ when Dfg.occupies_step g id ->
              List.iter (consume (Hls_sched.Schedule.step_of sched id)) node.Dfg.args
          | _ -> ())
        g;
      Option.iter (consume n) (Lifetime.branch_condition cfg bid);
      let writes =
        List.map (fun (v, w) -> (v, w, Hls_sched.Schedule.write_step sched w)) (Dfg.writes g)
      in
      (* first step from [from] on at which a write other than [except]
         overwrites [v]; past the block if none *)
      let overwrite ?(except = -1) v from =
        List.fold_left
          (fun acc (v', w, s) -> if v' = v && w <> except && s >= from then min acc s else acc)
          (n + 1) writes
      in
      let hold v lo hi =
        for k = max 0 lo to min n hi do
          note holds v (bid, k)
        done
      in
      List.iter (fun v -> hold v 0 0) (Liveness.live_in live bid);
      List.iter (fun (v, r) -> hold v 0 (min consumed.(r) (overwrite v 1) - 1)) (Dfg.reads g);
      List.iter
        (fun (v, w, s) ->
          note write_slots v (bid, s);
          hold v s s;
          match Dfg.args g w with
          | [ x ] when Dfg.occupies_step g x && consumed.(x) <= overwrite ~except:w v s ->
              hold v s (consumed.(x) - 1)
          | _ -> ())
        writes;
      let last_write v =
        List.fold_left (fun acc (v', _, s) -> if v' = v then max acc s else acc) 0 writes
      in
      List.iter (fun v -> hold v (last_write v) n) (Liveness.live_out live bid))
    (Cfg.block_ids cfg);
  let common tbl a b =
    let points v = Option.value ~default:[] (Hashtbl.find_opt tbl v) in
    List.find_opt (fun p -> List.mem p (points b)) (points a)
  in
  List.iter
    (fun group ->
      let reg = match group with r :: _ -> r | [] -> "?" in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                (match common holds a b with
                | Some (bid, k) ->
                    add
                      (error Alloc ~code:"ALLOC007" (Register reg)
                         "variables %s and %s share a register but both hold a value at \
                          block %d step boundary %d"
                         a b bid k)
                | None -> ());
                match common write_slots a b with
                | Some (bid, step) ->
                    add
                      (error Alloc ~code:"ALLOC008" (Register reg)
                         "variables %s and %s are both written in block %d step %d" a b bid
                         step)
                | None -> ())
              rest;
            pairs rest
      in
      pairs group)
    groups;
  List.rev !ds

let check_transfers cs ~fu ~regs given =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let expected = Interconnect.transfers cs ~fu ~regs in
  let count tbl (t : Interconnect.transfer) delta =
    let cur = match Hashtbl.find_opt tbl t with Some n -> n | None -> 0 in
    Hashtbl.replace tbl t (cur + delta)
  in
  let balance = Hashtbl.create 64 in
  List.iter (fun t -> count balance t 1) expected;
  List.iter (fun t -> count balance t (-1)) given;
  Hashtbl.iter
    (fun (t : Interconnect.transfer) n ->
      if n > 0 then
        add
          (error Alloc ~code:"ALLOC009" (Step (t.Interconnect.t_bid, t.Interconnect.t_step))
             "transfer %s -> %s is required but missing from the interconnect"
             (Interconnect.wire_to_string t.Interconnect.t_src)
             (Interconnect.dest_to_string t.Interconnect.t_dst))
      else if n < 0 then
        add
          (warning Alloc ~code:"ALLOC010"
             (Step (t.Interconnect.t_bid, t.Interconnect.t_step))
             "interconnect carries transfer %s -> %s that the design never performs"
             (Interconnect.wire_to_string t.Interconnect.t_src)
             (Interconnect.dest_to_string t.Interconnect.t_dst)))
    balance;
  List.rev !ds
