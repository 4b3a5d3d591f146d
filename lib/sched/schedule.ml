open Hls_cdfg

type t = { g : Dfg.t; step : int array; produced : int array; total : int }

(* producer_step per node given the occupying-op step table *)
let compute_produced g step =
  let n = Dfg.n_nodes g in
  let produced = Array.make n 0 in
  for id = 0 to n - 1 do
    let node = Dfg.node g id in
    let arg_max = List.fold_left (fun acc a -> max acc produced.(a)) 0 node.Dfg.args in
    produced.(id) <-
      (match node.Dfg.op with
      | Op.Const _ | Op.Read _ -> 0
      | _ -> if Dfg.occupies_step g id then step.(id) else arg_max)
  done;
  produced

let make g ~steps =
  let n = Dfg.n_nodes g in
  let step = Array.make n (-1) in
  for id = 0 to n - 1 do
    if Dfg.occupies_step g id then begin
      let s = steps id in
      if s < 1 then invalid_arg (Printf.sprintf "Schedule.make: node %%%d at step %d" id s);
      step.(id) <- s
    end
  done;
  let produced = compute_produced g step in
  let total = ref 1 in
  for id = 0 to n - 1 do
    if step.(id) >= 0 then total := max !total step.(id);
    match Dfg.op g id with
    | Op.Write _ -> total := max !total (max 1 produced.(id))
    | _ -> ()
  done;
  { g; step; produced; total = !total }

let dfg t = t.g

let digest t = Digest.string (Marshal.to_string (t.step, t.total) [])

let step_of t id =
  if t.step.(id) < 0 then
    invalid_arg (Printf.sprintf "Schedule.step_of: node %%%d is not step-occupying" id)
  else t.step.(id)

let producer_step t id = t.produced.(id)

let write_step t id =
  match Dfg.op t.g id with
  | Op.Write _ -> max 1 t.produced.(id)
  | op ->
      invalid_arg
        (Printf.sprintf "Schedule.write_step: node %%%d is %s, not a Write" id
           (Op.to_string op))

let n_steps t = t.total

let occupancy t =
  let occ = Limits.occupancy () in
  Array.iteri
    (fun id s -> if s >= 0 then Limits.occupy occ ~step:s (Dfg.fu_class_of t.g id))
    t.step;
  occ

let fu_requirement t = Limits.peak (occupancy t)

let ops_in_step t s =
  Dfg.fold (fun acc id _ -> if t.step.(id) = s then id :: acc else acc) [] t.g
  |> List.rev

let verify limits t =
  let g = t.g in
  let errors = ref [] in
  Dfg.iter
    (fun id node ->
      if Dfg.occupies_step g id then begin
        let s = t.step.(id) in
        List.iter
          (fun a ->
            (* chained (free) argument values are usable in the step after
               their producing step; entry values from step 1 *)
            if s < t.produced.(a) + 1 then
              errors :=
                Printf.sprintf "node %%%d (step %d) uses %%%d produced in step %d" id s
                  a t.produced.(a)
                :: !errors)
          node.Dfg.args
      end)
    g;
  let occ = occupancy t in
  for s = 1 to n_steps t do
    if not (Limits.step_within limits occ ~step:s) then
      errors := Printf.sprintf "step %d exceeds resource limits" s :: !errors
  done;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

let pp ppf t =
  let g = t.g in
  for s = 1 to n_steps t do
    let ops =
      Dfg.fold
        (fun acc id node ->
          let show =
            (t.step.(id) = s)
            || (Dfg.fu_class_of g id = Op.C_free && t.produced.(id) = s)
            || (match node.Dfg.op with
               | Op.Write _ -> (not (Dfg.occupies_step g id)) && max 1 t.produced.(id) = s
               | _ -> false)
          in
          if show then
            let tag = if Dfg.occupies_step g id then "" else "~" in
            Printf.sprintf "%s%%%d:%s" tag id (Op.to_string node.Dfg.op) :: acc
          else acc)
        [] g
      |> List.rev
    in
    Format.fprintf ppf "step %2d: %s@." s (String.concat "  " ops)
  done
