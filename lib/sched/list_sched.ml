open Hls_util

type priority = Path_length | Urgency of int | Mobility of int | Fifo

let priority_table dep prio =
  let clamp d = max d (Depgraph.critical_length dep) in
  match prio with
  | Path_length -> Depgraph.path_length dep
  | Urgency deadline ->
      (* smaller ALAP = more urgent = higher priority; negate *)
      Array.map (fun l -> -l) (Depgraph.alap dep ~deadline:(clamp deadline))
  | Mobility deadline ->
      let a = Depgraph.asap dep in
      let l = Depgraph.alap dep ~deadline:(clamp deadline) in
      Array.init (Array.length a) (fun i -> -(l.(i) - a.(i)))
  | Fifo -> Array.init (Depgraph.n_ops dep) (fun i -> -i)

(* Ready ops are kept between an in-degree-fed priority queue (ops whose
   last predecessor just finished) and a sorted carry-over list (ops that
   were ready earlier but deferred by the resource limits). Both orders
   agree with [cmp], so one merge per step recovers exactly the sorted
   ready list the naive algorithm builds by rescanning and re-sorting all
   n ops every step. *)
let schedule_dep ?(priority = Path_length) ~limits dep =
  let n = Depgraph.n_ops dep in
  let prio = priority_table dep priority in
  let steps = Array.make n 0 in
  (* higher priority first; index breaks ties, so the order is total and
     independent of queue insertion history *)
  let cmp a b =
    let c = compare prio.(b) prio.(a) in
    if c <> 0 then c else compare a b
  in
  let newly_ready = Pqueue.create ~cmp in
  let indeg = Array.make n 0 in
  for i = 0 to n - 1 do
    indeg.(i) <- List.length (Depgraph.preds dep i);
    if indeg.(i) = 0 then Pqueue.push newly_ready i
  done;
  let unscheduled = ref n in
  let step = ref 0 in
  let deferred = ref [] in
  let occ = Limits.occupancy () in
  while !unscheduled > 0 do
    incr step;
    let s = !step in
    let fresh = Pqueue.to_sorted_list newly_ready in
    let eligible = List.merge cmp !deferred fresh in
    let placed = ref [] in
    let still_deferred = ref [] in
    List.iter
      (fun i ->
        let cls = Depgraph.cls dep i in
        if Limits.fits limits occ ~step:s cls then begin
          steps.(i) <- s;
          decr unscheduled;
          placed := i :: !placed;
          Limits.occupy occ ~step:s cls
        end
        else still_deferred := i :: !still_deferred)
      eligible;
    deferred := List.rev !still_deferred;
    (* successors completing their last dependence become ready from s+1 *)
    List.iter
      (fun i ->
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then Pqueue.push newly_ready j)
          (Depgraph.succs dep i))
      !placed
  done;
  steps

(* The seed implementation: rescan all n ops for readiness and re-sort
   every step — O(n^2) per schedule. Kept as the oracle for the
   differential tests and as the benchmark baseline. *)
let schedule_dep_reference ?(priority = Path_length) ~limits dep =
  let n = Depgraph.n_ops dep in
  let prio = priority_table dep priority in
  let steps = Array.make n 0 in
  let unscheduled = ref n in
  let step = ref 0 in
  while !unscheduled > 0 do
    incr step;
    let s = !step in
    (* ready: unscheduled ops whose predecessors all completed before s *)
    let ready =
      List.filter
        (fun i ->
          steps.(i) = 0
          && List.for_all (fun p -> steps.(p) > 0 && steps.(p) < s) (Depgraph.preds dep i))
        (List.init n (fun i -> i))
    in
    let ordered =
      List.sort
        (fun a b ->
          let c = compare prio.(b) prio.(a) in
          if c <> 0 then c else compare a b)
        ready
    in
    let counts = ref [] in
    List.iter
      (fun i ->
        let cls = Depgraph.cls dep i in
        if Limits.can_add limits ~counts:!counts cls then begin
          steps.(i) <- s;
          decr unscheduled;
          let cur = match List.assoc_opt cls !counts with Some n -> n | None -> 0 in
          counts := (cls, cur + 1) :: List.remove_assoc cls !counts
        end)
      ordered
  done;
  steps
