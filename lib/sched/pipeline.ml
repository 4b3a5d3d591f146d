open Hls_cdfg

type result = {
  schedule : Schedule.t;
  ii : int;
  modulo_usage : (int * (Op.fu_class * int) list) list;
}

let resource_min_ii ~limits g = Depgraph.resource_bound ~limits (Depgraph.of_dfg g)

(* Modulo list scheduling: occupancy is tallied per slot = (step-1) mod
   ii, because iterations started every ii cycles overlap in those
   slots. Returns the steps and the slot occupancy. *)
let modulo ~limits ~ii dep =
  let n = Depgraph.n_ops dep in
  let occ = Limits.occupancy () in
  let prio = Depgraph.path_length dep in
  let steps = Array.make n 0 in
  let remaining = ref (List.init n (fun i -> i)) in
  let feasible = ref true in
  while !remaining <> [] && !feasible do
    let ready =
      List.filter
        (fun i -> List.for_all (fun p -> steps.(p) > 0) (Depgraph.preds dep i))
        !remaining
    in
    match
      List.sort
        (fun a b ->
          let c = compare prio.(b) prio.(a) in
          if c <> 0 then c else compare a b)
        ready
    with
    | [] -> feasible := false
    | i :: _ ->
        let lo =
          1 + List.fold_left (fun acc p -> max acc steps.(p)) 0 (Depgraph.preds dep i)
        in
        let cls = Depgraph.cls dep i in
        (* searching ii consecutive steps visits every slot once *)
        let rec try_step s tried =
          if tried >= ii then None
          else if Limits.fits limits occ ~step:((s - 1) mod ii) cls then Some s
          else try_step (s + 1) (tried + 1)
        in
        (match try_step lo 0 with
        | Some s ->
            steps.(i) <- s;
            Limits.occupy occ ~step:((s - 1) mod ii) cls
        | None -> feasible := false);
        remaining := List.filter (fun j -> j <> i) !remaining
  done;
  if !feasible then Some (steps, occ) else None

let result dep ~ii (steps, occ) =
  {
    schedule = Depgraph.to_schedule dep ~steps;
    ii;
    modulo_usage = List.init ii (fun slot -> (slot, Limits.step_counts occ ~step:slot));
  }

let schedule ~limits ~ii g =
  if ii < 1 then invalid_arg "Pipeline.schedule: ii must be positive";
  let dep = Depgraph.of_dfg g in
  Option.map (result dep ~ii) (modulo ~limits ~ii dep)

let min_ii ~limits g =
  let dep = Depgraph.of_dfg g in
  let rec search ii =
    match modulo ~limits ~ii dep with Some r -> result dep ~ii r | None -> search (ii + 1)
  in
  search (Depgraph.resource_bound ~limits dep)

let throughput_table g =
  let dep = Depgraph.of_dfg g in
  let sequential = max 1 (Depgraph.n_ops dep) in
  (* for each interval, the fewest general-purpose units that still
     admit a modulo schedule — Sehwa's cost/performance curve *)
  let min_units ii =
    let rec search k =
      if k > sequential then None
      else
        match modulo ~limits:(Limits.Total k) ~ii dep with
        | Some r -> Some r
        | None -> search (k + 1)
    in
    search 1
  in
  let total demand = List.fold_left (fun acc (_, k) -> acc + k) 0 demand in
  let rec collect ii acc last_units =
    if ii > sequential then List.rev acc
    else
      match min_units ii with
      | Some (steps, occ) ->
          (* keep a row only while it keeps saving hardware (units =
             per-class steady-state demand: the peak slot occupancy,
             what the datapath must buy) *)
          let d = Limits.peak occ in
          let acc, last_units =
            if total d < last_units then
              ((ii, Schedule.n_steps (Depgraph.to_schedule dep ~steps), d) :: acc, total d)
            else (acc, last_units)
          in
          collect (ii + 1) acc last_units
      | None -> collect (ii + 1) acc last_units
  in
  collect 1 [] max_int
