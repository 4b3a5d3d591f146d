open Hls_cdfg

let schedule_dep ?deadline dep =
  let n = Depgraph.n_ops dep in
  let cl = max 1 (Depgraph.critical_length dep) in
  let deadline = match deadline with Some d -> max d cl | None -> cl in
  let fixed = Array.make n None in
  (* ops of each class already placed in each step *)
  let occ = Limits.occupancy () in
  let used cls s = Limits.occupied occ ~step:s cls in
  let fu_count : (Op.fu_class, int) Hashtbl.t = Hashtbl.create 8 in
  let fus cls = match Hashtbl.find_opt fu_count cls with Some k -> k | None -> 0 in
  let place i s =
    fixed.(i) <- Some s;
    let cls = Depgraph.cls dep i in
    Limits.occupy occ ~step:s cls;
    if used cls s > fus cls then Hashtbl.replace fu_count cls (used cls s)
  in
  (* schedule the critical path first: ops with zero freedom *)
  let asap0, alap0 = Depgraph.frames dep ~deadline ~fixed in
  for i = 0 to n - 1 do
    if alap0.(i) = asap0.(i) then place i asap0.(i)
  done;
  let remaining () =
    List.filter (fun i -> fixed.(i) = None) (List.init n (fun i -> i))
  in
  let rec loop () =
    match remaining () with
    | [] -> ()
    | rem ->
        let asap, alap = Depgraph.frames dep ~deadline ~fixed in
        (* least freedom first *)
        let i =
          List.fold_left
            (fun best j ->
              let fr j = alap.(j) - asap.(j) in
              match best with
              | None -> Some j
              | Some b -> if fr j < fr b then Some j else best)
            None rem
        in
        let i = match i with Some i -> i | None -> assert false in
        let cls = Depgraph.cls dep i in
        (* best step in range: no new FU if possible, then least-used,
           then earliest *)
        let candidates = List.init (alap.(i) - asap.(i) + 1) (fun k -> asap.(i) + k) in
        let cost s = if used cls s < fus cls then (0, used cls s, s) else (1, used cls s, s) in
        let s =
          match List.sort (fun a b -> compare (cost a) (cost b)) candidates with
          | s :: _ -> s
          | [] -> assert false
        in
        place i s;
        loop ()
  in
  loop ();
  Array.map (function Some s -> s | None -> 1) fixed
