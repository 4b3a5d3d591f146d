let nodes_counter = Hls_obs.Trace.handle "bb/nodes"

(* Depth-first over ops in topological order from the list incumbent,
   cutting every partial schedule that cannot end strictly shorter than
   the best complete one. *)
let search ~limits dep incumbent =
  let n = Depgraph.n_ops dep in
  let best_len = ref (Array.fold_left max 1 incumbent) in
  let best = ref (Array.copy incumbent) in
  (* tail.(i): ops on the longest chain from op i to a sink, inclusive *)
  let tail = Depgraph.path_length dep in
  let steps = Array.make n 0 in
  (* step occupancy of the partial schedule *)
  let occ = Limits.occupancy () in
  let nodes = ref 0 in
  let rec assign i current_max =
    incr nodes;
    if i = n then begin
      if current_max < !best_len then begin
        best_len := current_max;
        best := Array.copy steps
      end
    end
    else begin
      let ready =
        1 + List.fold_left (fun acc p -> max acc steps.(p)) 0 (Depgraph.preds dep i)
      in
      let cls = Depgraph.cls dep i in
      (* latest step worth trying: finishing op i at step s implies a
         schedule of at least s + tail(i) - 1 steps *)
      let s = ref ready in
      let continue = ref true in
      while !continue do
        let lb = max current_max (!s + tail.(i) - 1) in
        if lb >= !best_len then continue := false
        else begin
          if Limits.fits limits occ ~step:!s cls then begin
            steps.(i) <- !s;
            Limits.occupy occ ~step:!s cls;
            assign (i + 1) (max current_max !s);
            Limits.vacate occ ~step:!s cls;
            steps.(i) <- 0
          end;
          incr s
        end
      done
    end
  in
  assign 0 1;
  Hls_obs.Trace.add_to nodes_counter !nodes;
  !best

let schedule_dep ?(node_cap = 24) ~limits dep =
  if Depgraph.n_ops dep > node_cap then None
  else
    let incumbent = List_sched.schedule_dep ~limits dep in
    (* an incumbent at the lower bound cannot be strictly beaten: the
       search would return it unchanged *)
    if Array.fold_left max 1 incumbent <= Depgraph.lower_bound ~limits dep then Some incumbent
    else Some (search ~limits dep incumbent)
