open Hls_util
open Hls_cdfg

let deadlines_counter = Hls_obs.Trace.handle "sched/ilp_deadlines"

(* Feasibility of a schedule of length [deadline] as a 0/1 program. *)
let feasible ~limits ~deadline dep =
  Hls_obs.Trace.bump deadlines_counter;
  let n = Depgraph.n_ops dep in
  let asap = Depgraph.asap dep in
  let alap = Depgraph.alap dep ~deadline in
  let prog = Binprog.create () in
  (* x.(i) = list of (step, var) for op i's possible placements *)
  let x =
    Array.init n (fun i ->
        List.init
          (alap.(i) - asap.(i) + 1)
          (fun k -> (asap.(i) + k, Binprog.new_var prog)))
  in
  Array.iter (fun placements -> Binprog.add_group prog (List.map snd placements)) x;
  (* precedence: op i before successor j, strictly *)
  for i = 0 to n - 1 do
    List.iter
      (fun j ->
        List.iter
          (fun (si, vi) ->
            List.iter
              (fun (sj, vj) -> if sj <= si then Binprog.forbid_pair prog vi vj)
              x.(j))
          x.(i))
      (Depgraph.succs dep i)
  done;
  (* resources per step *)
  for s = 1 to deadline do
    (* total budget *)
    (match limits with
    | Limits.Serial | Limits.Total _ ->
        let k = match limits with Limits.Serial -> 1 | Limits.Total k -> k | _ -> 1 in
        let vars =
          List.concat
            (List.init n (fun i ->
                 List.filter_map (fun (si, v) -> if si = s then Some v else None) x.(i)))
        in
        if vars <> [] then Binprog.at_most prog k vars
    | Limits.Classes caps ->
        List.iter
          (fun (cls, cap) ->
            let vars =
              List.concat
                (List.init n (fun i ->
                     if Depgraph.cls dep i = cls then
                       List.filter_map (fun (si, v) -> if si = s then Some v else None) x.(i)
                     else []))
            in
            if vars <> [] then Binprog.at_most prog cap vars)
          (caps :> (Op.fu_class * int) list)
    | Limits.Unlimited -> ())
  done;
  match Binprog.solve prog with
  | None -> None
  | Some value ->
      let steps = Array.make n 1 in
      Array.iteri
        (fun i placements ->
          List.iter (fun (s, v) -> if value v then steps.(i) <- s) placements)
        x;
      Some steps

let schedule_dep ?(node_cap = 12) ~limits dep =
  let n = Depgraph.n_ops dep in
  if n > node_cap then None
  else begin
    let rec search deadline =
      if deadline > max 1 n then
        (* serialization is always feasible; should never get here *)
        invalid_arg "Ilp_sched: no feasible deadline (internal)"
      else
        match feasible ~limits ~deadline dep with
        | Some steps -> steps
        | None -> search (deadline + 1)
    in
    Some (search (Depgraph.lower_bound ~limits dep))
  end
