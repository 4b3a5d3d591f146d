open Hls_cdfg

type caps = (Op.fu_class * int) list
type t = Serial | Total of int | Classes of caps | Unlimited

let classes caps =
  let smallest cls =
    match List.filter_map (fun (c, n) -> if c = cls then Some n else None) caps with
    | [] -> None
    | n :: ns -> Some (cls, List.fold_left min n ns)
  in
  match List.filter_map smallest Op.occupying_classes with [] -> Unlimited | caps -> Classes caps

let total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

let class_count counts cls =
  match List.assoc_opt cls counts with Some n -> n | None -> 0

let can_add t ~counts cls =
  if not (Op.occupies cls) then true
  else
    match t with
    | Unlimited -> true
    | Serial -> total counts < 1
    | Total k -> total counts < k
    | Classes caps -> (
        match List.assoc_opt cls caps with
        | None -> true
        | Some cap -> class_count counts cls < cap)

let within t ~counts =
  match t with
  | Unlimited -> true
  | Serial -> total counts <= 1
  | Total k -> total counts <= k
  | Classes caps ->
      List.for_all (fun (cls, cap) -> class_count counts cls <= cap) caps

(* ---- step occupancy ---- *)

(* One row of [n_classes] cells per step plus the step's total; rows
   grow on demand. *)
let n_classes = 6

let class_index = function
  | Op.C_alu -> 0
  | Op.C_mul -> 1
  | Op.C_div -> 2
  | Op.C_shift -> 3
  | Op.C_free -> 4
  | Op.C_none -> 5

(* declaration order, so tallies read out sorted *)
let all_classes = [ Op.C_alu; Op.C_mul; Op.C_div; Op.C_shift; Op.C_free; Op.C_none ]

type occupancy = { mutable cells : int array; mutable totals : int array }

let occupancy () = { cells = Array.make (8 * n_classes) 0; totals = Array.make 8 0 }

let occupied o ~step cls =
  if step < Array.length o.totals then o.cells.((step * n_classes) + class_index cls) else 0

let step_total o step = if step < Array.length o.totals then o.totals.(step) else 0

let bump o ~step cls d =
  if step < 0 then invalid_arg (Printf.sprintf "Limits: step %d" step);
  let len = Array.length o.totals in
  if step >= len then begin
    let len' = max (2 * len) (step + 1) in
    let cells = Array.make (len' * n_classes) 0 and totals = Array.make len' 0 in
    Array.blit o.cells 0 cells 0 (len * n_classes);
    Array.blit o.totals 0 totals 0 len;
    o.cells <- cells;
    o.totals <- totals
  end;
  let c = (step * n_classes) + class_index cls in
  o.cells.(c) <- o.cells.(c) + d;
  o.totals.(step) <- o.totals.(step) + d

let occupy o ~step cls = bump o ~step cls 1
let vacate o ~step cls = bump o ~step cls (-1)

let fits t o ~step cls =
  if not (Op.occupies cls) then true
  else
    match t with
    | Unlimited -> true
    | Serial -> step_total o step < 1
    | Total k -> step_total o step < k
    | Classes caps -> (
        match List.assoc_opt cls caps with
        | None -> true
        | Some cap -> occupied o ~step cls < cap)

let step_within t o ~step =
  match t with
  | Unlimited -> true
  | Serial -> step_total o step <= 1
  | Total k -> step_total o step <= k
  | Classes caps -> List.for_all (fun (cls, cap) -> occupied o ~step cls <= cap) caps

let step_counts o ~step =
  List.filter_map
    (fun cls -> match occupied o ~step cls with 0 -> None | k -> Some (cls, k))
    all_classes

let peak o =
  let steps = Array.length o.totals in
  List.filter_map
    (fun cls ->
      let m = ref 0 in
      for step = 0 to steps - 1 do
        m := max !m (occupied o ~step cls)
      done;
      if !m = 0 then None else Some (cls, !m))
    all_classes

let to_string = function
  | Serial -> "serial"
  | Total k -> Printf.sprintf "%d FUs" k
  | Unlimited -> "unlimited"
  | Classes caps ->
      caps
      |> List.map (fun (cls, n) -> Printf.sprintf "%d %s" n (Op.fu_class_to_string cls))
      |> String.concat ", "

let serial = Serial
let two_fu = Total 2
