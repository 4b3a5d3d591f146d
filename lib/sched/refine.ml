(* Feedback-guided schedule refinement (the loop the 1988 paper leaves
   open: "use post-synthesis area/delay results to redo scheduling").

   A finished design is mined for its critical subgraph — the
   delay-weighted longest register-to-register dependence chain, blocks
   whose FU classes are oversubscribed (peak concurrency above average
   demand), and producers of the values sitting on the live-storage
   floor — and just those blocks are re-scheduled under tightened
   constraints: a reduced deadline on the critical chain, and pins that
   perturb the force-directed distribution-graph priorities. Candidates
   come from the incremental {!Force_directed} kernel (cheap per
   re-schedule), are completed through the backend by the caller, and
   are accepted only on strict Pareto improvement, so iteration is
   monotone and terminates.

   This module is deliberately backend-agnostic: the delay model and
   the live-storage signal arrive through {!signals} callbacks and the
   candidate evaluation through {!refine}'s [evaluate], keeping the
   sched layer free of rtl/alloc dependencies. *)

open Hls_cdfg

type target = {
  t_block : Cfg.bid;
  t_deadline : int;
  t_pins : (int * int) list;  (** (depgraph op index, step) *)
  t_label : string;
}

type signals = {
  op_delay : Dfg.t -> Dfg.nid -> float;
      (** propagation delay of one op under the component library *)
  live_pins : Cfg.bid -> Dfg.nid list;
      (** producers of values on the live-storage floor, most
          constraining first *)
}

(* Delay-weighted longest dependence path through a block, as op
   indices in topological order. DP over the depgraph's index order
   (indices are topological); ties keep the lowest-index predecessor so
   extraction is deterministic. *)
let critical_chain dep ~delay =
  let n = Depgraph.n_ops dep in
  if n = 0 then []
  else begin
    let best = Array.make n 0.0 in
    let from = Array.make n (-1) in
    for i = 0 to n - 1 do
      let bp, fp =
        List.fold_left
          (fun ((b, _) as acc) p -> if best.(p) > b then (best.(p), p) else acc)
          (0.0, -1) (Depgraph.preds dep i)
      in
      best.(i) <- delay i +. bp;
      from.(i) <- fp
    done;
    let e = ref 0 in
    for i = 1 to n - 1 do
      if best.(i) > best.(!e) then e := i
    done;
    let rec walk i acc = if i < 0 then acc else walk from.(i) (i :: acc) in
    walk !e []
  end

let extract signals cs =
  let cfg = Cfg_sched.cfg cs in
  List.concat_map
    (fun bid ->
      let g = Cfg.dfg cfg bid in
      let dep = Depgraph.of_dfg g in
      let nops = Depgraph.n_ops dep in
      if nops < 2 then []
      else begin
        let s = Cfg_sched.block_schedule cs bid in
        let n = Schedule.n_steps s in
        let cl = max 1 (Depgraph.critical_length dep) in
        let tgt ?(pins = []) ~deadline label =
          {
            t_block = bid;
            t_deadline = deadline;
            t_pins = pins;
            t_label = Printf.sprintf "%s b%d" label bid;
          }
        in
        let class_count c =
          let k = ref 0 in
          for i = 0 to nops - 1 do
            if Depgraph.cls dep i = c then incr k
          done;
          !k
        in
        (* oversubscribed FU class: peak concurrency above the class's
           average demand — a balancing re-schedule may shave a unit *)
        let oversubscribed =
          List.exists
            (fun (c, peak) -> peak * n > class_count c)
            (Schedule.fu_requirement s)
        in
        let rebalance = if oversubscribed then [ tgt ~deadline:n "rebalance" ] else [] in
        let compress =
          if n - 1 >= cl then [ tgt ~deadline:(n - 1) "compress" ] else []
        in
        (* pins along the delay-weighted critical chain, at both frame
           extremes: each perturbs the distribution graphs around the
           chain while keeping the chain itself feasible *)
        let chain = critical_chain dep ~delay:(fun i -> signals.op_delay g (Depgraph.nid_of dep i)) in
        let chain_tgts deadline suffix =
          if List.length chain < 2 || deadline < cl then []
          else begin
            let asap = Depgraph.asap dep in
            let alap = Depgraph.alap dep ~deadline in
            [
              tgt ~deadline
                ~pins:(List.map (fun i -> (i, asap.(i))) chain)
                ("chain-asap" ^ suffix);
              tgt ~deadline
                ~pins:(List.map (fun i -> (i, alap.(i))) chain)
                ("chain-alap" ^ suffix);
            ]
          end
        in
        (* live-storage floor: delaying a long-lived value's producer to
           its ALAP shortens the lifetime that sets the register floor *)
        let live =
          let nids = signals.live_pins bid in
          let alap = Depgraph.alap dep ~deadline:n in
          List.filteri (fun k _ -> k < 2) nids
          |> List.filter_map (fun nid ->
                 match Depgraph.index_of dep nid with
                 | i -> Some (tgt ~deadline:n ~pins:[ (i, alap.(i)) ] "live")
                 | exception Not_found -> None)
        in
        rebalance @ compress @ chain_tgts n "" @ chain_tgts (n - 1) "-c" @ live
      end)
    (Cfg.block_ids cfg)

let candidates cs ~targets =
  let cfg = Cfg_sched.cfg cs in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun t ->
      match
        let g = Cfg.dfg cfg t.t_block in
        let dep = Depgraph.of_dfg g in
        let steps =
          Force_directed.schedule_dep ~pins:t.t_pins ~deadline:t.t_deadline dep
        in
        Depgraph.to_schedule dep ~steps
      with
      | exception Invalid_argument _ ->
          Hls_obs.Trace.incr "refine/infeasible";
          None
      | s ->
          Hls_obs.Trace.incr "refine/candidates";
          let key = (t.t_block, Schedule.digest s) in
          if
            Schedule.digest s
            = Schedule.digest (Cfg_sched.block_schedule cs t.t_block)
            || Hashtbl.mem seen key
          then begin
            Hls_obs.Trace.incr "refine/duplicates";
            None
          end
          else begin
            Hashtbl.add seen key ();
            Some (t, Cfg_sched.with_block cs t.t_block s)
          end)
    targets

let dominates (a1, l1) (a2, l2) =
  (a1 <= a2 && l1 < l2) || (a1 < a2 && l1 <= l2)

let refine ~max_iters ~propose ~evaluate ~measure ~sched_of seed =
  let score (a, l) = a *. l in
  let current = ref seed in
  let iters = ref 0 in
  let continue_ = ref (max_iters > 0) in
  while !continue_ do
    let iter = !iters + 1 in
    let accepted =
      Hls_obs.Trace.with_span "refine/iter"
        ~args:[ ("iter", string_of_int iter) ]
        (fun () ->
          let targets = propose ~iter !current in
          let cands = candidates (sched_of !current) ~targets in
          let cur_m = measure !current in
          let evaluated = ref 0 in
          let best =
            List.fold_left
              (fun acc (_t, cs) ->
                match evaluate cs with
                | None -> acc
                | Some d ->
                    incr evaluated;
                    let m = measure d in
                    if not (dominates m cur_m) then acc
                    else
                      (* among strict improvements, keep the best
                         area x latency product, first of equals *)
                      (match acc with
                      | Some (bm, _) when score m >= score bm -> acc
                      | _ -> Some (m, d)))
              None cands
          in
          Hls_obs.Trace.add "refine/rejected"
            (!evaluated - match best with Some _ -> 1 | None -> 0);
          best)
    in
    match accepted with
    | Some (_, d) ->
        Hls_obs.Trace.incr "refine/accepted";
        current := d;
        incr iters;
        if !iters >= max_iters then continue_ := false
    | None -> continue_ := false
  done;
  Hls_obs.Trace.add "refine/iterations" !iters;
  (!current, !iters)
