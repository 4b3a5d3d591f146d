(* keeps the occupancy of [steps] current *)
let move occ dep steps i s =
  let cls = Depgraph.cls dep i in
  Limits.vacate occ ~step:steps.(i) cls;
  Limits.occupy occ ~step:s cls;
  steps.(i) <- s

let from_parallel_dep ~limits dep =
  let n = Depgraph.n_ops dep in
  let steps = Depgraph.asap dep in
  let prio = Depgraph.path_length dep in
  let occ = Depgraph.occupancy dep ~steps in
  let retighten () =
    (* push successors down so dependences hold (ops are topological) *)
    for i = 0 to n - 1 do
      let lo = 1 + List.fold_left (fun acc p -> max acc steps.(p)) 0 (Depgraph.preds dep i) in
      if steps.(i) < lo then move occ dep steps i lo
    done
  in
  let find_violation () =
    let max_step = Array.fold_left max 1 steps in
    let rec scan s =
      if s > max_step then None
      else if Limits.step_within limits occ ~step:s then scan (s + 1)
      else Some s
    in
    scan 1
  in
  let fuel = ref (n * n * 4 + 64) in
  let rec fix () =
    decr fuel;
    if !fuel <= 0 then ()
    else
      match find_violation () with
      | None -> ()
      | Some s ->
          (* displace the lowest-priority op of an over-capacity class:
             a class is over capacity iff, with one of its ops removed,
             adding it back still would not fit *)
          let over_capacity cls =
            Limits.vacate occ ~step:s cls;
            let over = not (Limits.fits limits occ ~step:s cls) in
            Limits.occupy occ ~step:s cls;
            over
          in
          let movable =
            List.filter
              (fun i -> steps.(i) = s && over_capacity (Depgraph.cls dep i))
              (List.init n (fun i -> i))
          in
          let victim =
            List.fold_left
              (fun best i ->
                match best with
                | None -> Some i
                | Some b ->
                    if (prio.(i), -i) < (prio.(b), -b) then Some i else best)
              None movable
          in
          (match victim with
          | Some i -> move occ dep steps i (s + 1)
          | None -> ());
          retighten ();
          fix ()
  in
  fix ();
  match find_violation () with
  | None -> steps
  | Some _ ->
      (* fuel exhausted on a pathological instance: fall back to a legal
         constructive schedule *)
      List_sched.schedule_dep ~limits dep

let from_serial_dep ~limits dep =
  let n = Depgraph.n_ops dep in
  (* maximally serial: one op per step in topological order *)
  let steps = Array.init n (fun i -> i + 1) in
  let occ = Depgraph.occupancy dep ~steps in
  let changed = ref true in
  let fuel = ref (n * n + 64) in
  while !changed && !fuel > 0 do
    changed := false;
    decr fuel;
    for i = 0 to n - 1 do
      let ready =
        1 + List.fold_left (fun acc p -> max acc steps.(p)) 0 (Depgraph.preds dep i)
      in
      let cls = Depgraph.cls dep i in
      (* earliest step >= ready with room, considering ops other than i *)
      let rec try_step s =
        if s >= steps.(i) then steps.(i)
        else if Limits.fits limits occ ~step:s cls then s
        else try_step (s + 1)
      in
      let s = try_step ready in
      if s < steps.(i) then begin
        move occ dep steps i s;
        changed := true
      end
    done
  done;
  (* compact empty steps *)
  let max_step = Array.fold_left max 1 steps in
  let occupied = Array.make (max_step + 1) false in
  Array.iter (fun s -> occupied.(s) <- true) steps;
  let shift = Array.make (max_step + 1) 0 in
  let gap = ref 0 in
  for s = 1 to max_step do
    if not occupied.(s) then incr gap;
    shift.(s) <- !gap
  done;
  Array.map (fun s -> s - shift.(s)) steps
