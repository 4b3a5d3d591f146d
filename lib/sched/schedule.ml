open Hls_cdfg

type t = { g : Dfg.t; step : int array; produced : int array; total : int }

(* One pass in node order (arguments precede their users): an occupying
   node's step, every node's producing step, and the block's length. *)
let make g ~steps =
  let n = Dfg.n_nodes g in
  let step = Array.make n (-1) and produced = Array.make n 0 in
  let total = ref 1 in
  for id = 0 to n - 1 do
    let node = Dfg.node g id in
    match node.Dfg.op with
    | Op.Const _ | Op.Read _ -> ()
    | op ->
        let p =
          if Dfg.occupies_step g id then begin
            let s = steps id in
            if s < 1 then invalid_arg (Printf.sprintf "Schedule.make: node %%%d at step %d" id s);
            step.(id) <- s;
            s
          end
          else List.fold_left (fun acc a -> max acc produced.(a)) 0 node.Dfg.args
        in
        produced.(id) <- p;
        total := max !total (match op with Op.Write _ -> max 1 p | _ -> p)
  done;
  { g; step; produced; total = !total }

let dfg t = t.g

let add_key b t =
  let int x = Buffer.add_int32_le b (Int32.of_int x) in
  int t.total;
  int (Array.length t.step);
  Array.iter int t.step

let digest t =
  let b = Buffer.create 64 in
  add_key b t;
  Digest.string (Buffer.contents b)

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
let n_ops t = Array.fold_left (fun acc s -> if s >= 0 then acc + 1 else acc) 0 t.step

let occupancy t =
  let occ = Limits.occupancy () in
  Array.iteri
    (fun id s -> if s >= 0 then Limits.occupy occ ~step:s (Dfg.fu_class_of t.g id))
    t.step;
  occ

let fu_requirement t = Limits.peak (occupancy t)

let by_step t =
  let rows = Array.make (t.total + 1) [] in
  for id = Array.length t.step - 1 downto 0 do
    let s = t.step.(id) in
    if s >= 0 then rows.(s) <- id :: rows.(s)
  done;
  rows

let verify limits t =
  let g = t.g in
  let errors = ref [] in
  Dfg.iter
    (fun id node ->
      if t.step.(id) >= 0 then begin
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
  (* each node shows on one step: an occupying op on its own, a free
     chain on its producer's, a latching write on the step it latches *)
  let rows = Array.make (t.total + 1) [] in
  for id = Dfg.n_nodes g - 1 downto 0 do
    let node = Dfg.node g id in
    let s, tag =
      if t.step.(id) >= 0 then (t.step.(id), "")
      else if Dfg.fu_class_of g id = Op.C_free then (t.produced.(id), "~")
      else match node.Dfg.op with Op.Write _ -> (max 1 t.produced.(id), "~") | _ -> (0, "")
    in
    if s >= 1 then
      rows.(s) <- Printf.sprintf "%s%%%d:%s" tag id (Op.to_string node.Dfg.op) :: rows.(s)
  done;
  for s = 1 to t.total do
    Format.fprintf ppf "step %2d: %s@." s (String.concat "  " rows.(s))
  done
