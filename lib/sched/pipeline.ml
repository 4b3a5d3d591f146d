open Hls_cdfg

type result = {
  schedule : Schedule.t;
  ii : int;
  modulo_usage : (int * (Op.fu_class * int) list) list;
}

let resource_min_ii ~limits g = Depgraph.resource_bound ~limits (Depgraph.of_dfg g)

(* Modulo list scheduling: usage is tallied per slot = (step-1) mod ii,
   because iterations started every ii cycles overlap in those slots. *)
let schedule_dep ~limits ~ii dep =
  let n = Depgraph.n_ops dep in
  let slot_counts = Array.make ii [] in
  let add_at slot cls =
    let cur =
      match List.assoc_opt cls slot_counts.(slot) with Some k -> k | None -> 0
    in
    slot_counts.(slot) <- (cls, cur + 1) :: List.remove_assoc cls slot_counts.(slot)
  in
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
          else begin
            let slot = (s - 1) mod ii in
            if Limits.can_add limits ~counts:slot_counts.(slot) cls then Some s
            else try_step (s + 1) (tried + 1)
          end
        in
        (match try_step lo 0 with
        | Some s ->
            steps.(i) <- s;
            add_at ((s - 1) mod ii) cls
        | None -> feasible := false);
        remaining := List.filter (fun j -> j <> i) !remaining
  done;
  if !feasible then Some steps else None

let modulo_usage_of dep steps ~ii =
  let table = Array.make ii [] in
  Array.iteri
    (fun i s ->
      let slot = (s - 1) mod ii in
      let cls = Depgraph.cls dep i in
      let cur = match List.assoc_opt cls table.(slot) with Some k -> k | None -> 0 in
      table.(slot) <- (cls, cur + 1) :: List.remove_assoc cls table.(slot))
    steps;
  Array.to_list (Array.mapi (fun slot counts -> (slot, List.sort compare counts)) table)

let schedule ~limits ~ii g =
  if ii < 1 then invalid_arg "Pipeline.schedule: ii must be positive";
  let dep = Depgraph.of_dfg g in
  match schedule_dep ~limits ~ii dep with
  | None -> None
  | Some steps ->
      Some
        {
          schedule = Depgraph.to_schedule dep ~steps;
          ii;
          modulo_usage = modulo_usage_of dep steps ~ii;
        }

let min_ii ~limits g =
  let rec search ii =
    match schedule ~limits ~ii g with Some r -> r | None -> search (ii + 1)
  in
  search (resource_min_ii ~limits g)

(* steady-state unit demand of a modulo schedule: per class, the maximum
   concurrent slot load *)
let demand_of r =
  List.fold_left
    (fun acc (_, counts) ->
      List.fold_left
        (fun acc (cls, k) ->
          let cur = match List.assoc_opt cls acc with Some c -> c | None -> 0 in
          (cls, max cur k) :: List.remove_assoc cls acc)
        acc counts)
    [] r.modulo_usage
  |> List.sort compare

let throughput_table ~limits g =
  ignore limits;
  let dep = Depgraph.of_dfg g in
  let sequential = max 1 (Depgraph.n_ops dep) in
  (* for each interval, the fewest general-purpose units that still
     admit a modulo schedule — Sehwa's cost/performance curve *)
  let min_units ii =
    let rec search k =
      if k > sequential then None
      else
        match schedule ~limits:(Limits.Total k) ~ii g with
        | Some r -> Some (k, r)
        | None -> search (k + 1)
    in
    search 1
  in
  let total demand = List.fold_left (fun acc (_, k) -> acc + k) 0 demand in
  let rec collect ii acc last_units =
    if ii > sequential then List.rev acc
    else
      match min_units ii with
      | Some (_, r) ->
          (* keep a row only while it keeps saving hardware (units =
             per-class steady-state demand, what the datapath must buy) *)
          let d = demand_of r in
          let acc, last_units =
            if total d < last_units then
              ((ii, Schedule.n_steps r.schedule, d) :: acc, total d)
            else (acc, last_units)
          in
          collect (ii + 1) acc last_units
      | None -> collect (ii + 1) acc last_units
  in
  collect 1 [] max_int
