open Hls_cdfg

(* delays of the cheapest covering component per class, plus the fixed
   per-step overhead of a register read and one mux level; mirrors
   Hls_rtl.Component without depending on it (sched sits below rtl) *)
let op_delay_ns = function
  | Op.C_alu -> 18.0
  | Op.C_mul -> 60.0
  | Op.C_div -> 90.0
  | Op.C_shift -> 25.0
  | Op.C_free | Op.C_none -> 0.0

let step_overhead_ns = 4.0 (* register clock-to-q + input mux *)

type t = {
  steps : int array;
  ready_ns : float array;
  n_steps : int;
  period_ns : float;
  dep : Depgraph.t;
}

let schedule ~period_ns ~limits g =
  let dep = Depgraph.of_dfg g in
  let n = Depgraph.n_ops dep in
  let slowest =
    List.fold_left
      (fun acc i -> max acc (op_delay_ns (Depgraph.cls dep i)))
      0.0
      (List.init n Fun.id)
  in
  if period_ns < step_overhead_ns +. slowest then
    invalid_arg
      (Printf.sprintf "Chaining.schedule: period %.1f ns below %.1f ns minimum"
         period_ns (step_overhead_ns +. slowest));
  let prio = Depgraph.path_length dep in
  let steps = Array.make n 0 in
  let ready = Array.make n 0.0 in
  let occ = Limits.occupancy () in
  let remaining = ref (List.init n (fun i -> i)) in
  while !remaining <> [] do
    let ready_ops =
      List.filter
        (fun i -> List.for_all (fun p -> steps.(p) > 0) (Depgraph.preds dep i))
        !remaining
    in
    match
      List.sort
        (fun a b ->
          let c = compare prio.(b) prio.(a) in
          if c <> 0 then c else compare a b)
        ready_ops
    with
    | [] -> invalid_arg "Chaining.schedule: dependence cycle (internal)"
    | i :: _ ->
        let cls = Depgraph.cls dep i in
        let d = op_delay_ns cls in
        (* earliest step considering chaining: within a predecessor's
           step the op starts at the predecessor's finish time *)
        let start_in s =
          List.fold_left
            (fun acc p ->
              if steps.(p) = s then max acc ready.(p)
              else if steps.(p) > s then infinity
              else acc)
            step_overhead_ns (Depgraph.preds dep i)
        in
        let fits s =
          let start = start_in s in
          start +. d <= period_ns
          && Limits.fits limits occ ~step:s cls
        in
        let lo =
          List.fold_left (fun acc p -> max acc steps.(p)) 1 (Depgraph.preds dep i)
        in
        let rec place s =
          (* beyond all predecessors' steps the start time is just the
             overhead, so the search terminates at the first step with
             resource room *)
          if fits s then s else place (s + 1)
        in
        let s = place lo in
        steps.(i) <- s;
        Limits.occupy occ ~step:s cls;
        ready.(i) <- start_in s +. d;
        remaining := List.filter (fun j -> j <> i) !remaining
  done;
  let n_steps = Array.fold_left max 1 steps in
  { steps; ready_ns = ready; n_steps; period_ns; dep }

let verify ?(limits = Limits.Unlimited) t =
  let errors = ref [] in
  let n = Depgraph.n_ops t.dep in
  let occ = Depgraph.occupancy t.dep ~steps:t.steps in
  for s = 1 to t.n_steps do
    if not (Limits.step_within limits occ ~step:s) then
      errors := Printf.sprintf "step %d exceeds resource limits" s :: !errors
  done;
  for i = 0 to n - 1 do
    if t.ready_ns.(i) > t.period_ns +. 1e-9 then
      errors := Printf.sprintf "op %d exceeds the period" i :: !errors;
    List.iter
      (fun p ->
        if t.steps.(p) > t.steps.(i) then
          errors := Printf.sprintf "op %d before its predecessor %d" i p :: !errors
        else if t.steps.(p) = t.steps.(i) then begin
          (* chained: producer must finish before the consumer completes *)
          let d = op_delay_ns (Depgraph.cls t.dep i) in
          if t.ready_ns.(i) < t.ready_ns.(p) +. d -. 1e-9 then
            errors :=
              Printf.sprintf "op %d starts before its chained producer %d finishes" i p
              :: !errors
        end)
      (Depgraph.preds t.dep i)
  done;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

let sweep ~limits ~periods_ns g =
  List.filter_map
    (fun period_ns ->
      match schedule ~period_ns ~limits g with
      | t -> Some (period_ns, t.n_steps, float_of_int t.n_steps *. period_ns)
      | exception Invalid_argument _ -> None)
    periods_ns
