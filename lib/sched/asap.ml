let schedule_dep ~limits dep =
  let n = Depgraph.n_ops dep in
  let steps = Array.make n 0 in
  let occ = Limits.occupancy () in
  for i = 0 to n - 1 do
    let ready =
      1 + List.fold_left (fun acc p -> max acc steps.(p)) 0 (Depgraph.preds dep i)
    in
    let cls = Depgraph.cls dep i in
    let rec place s = if Limits.fits limits occ ~step:s cls then s else place (s + 1) in
    let s = place ready in
    steps.(i) <- s;
    Limits.occupy occ ~step:s cls
  done;
  steps
