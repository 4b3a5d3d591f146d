open Hls_cdfg

type t = {
  g : Dfg.t;
  ops : Dfg.nid array;
  index : int array;  (** by node id: op index, -1 for a node that takes no step *)
  pred_table : int list array;
  succ_table : int list array;
  cls_table : Op.fu_class array;
  asap_steps : int array;
  asap_occ : Limits.occupancy;  (** of [asap_steps]; never mutated after [of_dfg] *)
  critical : int;  (** the largest ASAP step, 0 without operations *)
}

(* Occupying ancestors of a node, looking through free chains. *)
let rec eff_sources g id acc =
  if Dfg.occupies_step g id then id :: acc
  else
    match Dfg.op g id with
    | Op.Const _ | Op.Read _ -> acc
    | _ -> List.fold_left (fun acc a -> eff_sources g a acc) acc (Dfg.args g id)

(* The forward pass of constrained time frames: [fixed i] pins op [i]
   to one step; every other op takes the earliest step after its
   predecessors. *)
let forward pred_table ~fixed =
  let n = Array.length pred_table in
  let a = Array.make n 1 in
  for i = 0 to n - 1 do
    a.(i) <-
      (match fixed i with
      | Some s -> s
      | None -> 1 + List.fold_left (fun acc p -> max acc a.(p)) 0 pred_table.(i))
  done;
  a

let unpinned _ = None

let tally cls_table steps =
  let occ = Limits.occupancy () in
  Array.iteri (fun i s -> Limits.occupy occ ~step:s cls_table.(i)) steps;
  occ

let of_dfg g =
  let ops = Array.of_list (Dfg.compute_ops g) in
  let index = Array.make (Dfg.n_nodes g) (-1) in
  Array.iteri (fun i nid -> index.(nid) <- i) ops;
  let n = Array.length ops in
  let pred_table = Array.make n [] in
  let succ_table = Array.make n [] in
  let cls_table = Array.make n Op.C_alu in
  Array.iteri
    (fun i nid ->
      cls_table.(i) <- Dfg.fu_class_of g nid;
      let sources =
        List.fold_left (fun acc a -> eff_sources g a acc) [] (Dfg.args g nid)
        |> List.sort_uniq compare
      in
      let pred_idx = List.map (fun nid -> index.(nid)) sources in
      pred_table.(i) <- pred_idx;
      List.iter (fun p -> succ_table.(p) <- i :: succ_table.(p)) pred_idx)
    ops;
  Array.iteri (fun i s -> succ_table.(i) <- List.sort compare s) succ_table;
  let asap_steps = forward pred_table ~fixed:unpinned in
  let asap_occ = tally cls_table asap_steps in
  let critical = Array.fold_left max 0 asap_steps in
  { g; ops; index; pred_table; succ_table; cls_table; asap_steps; asap_occ; critical }

let n_ops t = Array.length t.ops
let nid_of t i = t.ops.(i)
let index_of t nid = match t.index.(nid) with -1 -> raise Not_found | i -> i
let preds t i = t.pred_table.(i)
let succs t i = t.succ_table.(i)
let cls t i = t.cls_table.(i)

(* The backward pass of constrained time frames: [fixed i] pins op [i]
   to one step; every other op takes the latest step before its
   successors and the deadline. *)
let backward t ~deadline ~fixed =
  let n = n_ops t in
  let l = Array.make n deadline in
  for i = n - 1 downto 0 do
    l.(i) <-
      (match fixed i with
      | Some s -> s
      | None -> List.fold_left (fun acc s -> min acc (l.(s) - 1)) deadline t.succ_table.(i))
  done;
  l

let frames t ~deadline ~fixed =
  let fixed = Array.get fixed in
  (forward t.pred_table ~fixed, backward t ~deadline ~fixed)

let asap t = Array.copy t.asap_steps
let critical_length t = t.critical

let asap_fits ~limits t =
  let rec from s =
    s > t.critical || (Limits.step_within limits t.asap_occ ~step:s && from (s + 1))
  in
  from 1

let alap t ~deadline =
  let cl = critical_length t in
  if deadline < cl then
    invalid_arg
      (Printf.sprintf "Depgraph.alap: deadline %d below critical path %d" deadline cl);
  backward t ~deadline ~fixed:unpinned

let resource_bound ~limits t =
  let ceil_div a b = (a + b - 1) / b in
  let count cls = Array.fold_left (fun acc c -> if c = cls then acc + 1 else acc) 0 t.cls_table in
  match limits with
  | Limits.Unlimited -> 1
  | Limits.Serial -> max 1 (n_ops t)
  | Limits.Total k -> if k <= 0 then 1 else max 1 (ceil_div (n_ops t) k)
  | Limits.Classes caps ->
      List.fold_left
        (fun acc (cls, cap) -> if cap > 0 then max acc (ceil_div (count cls) cap) else acc)
        1
        (caps :> (Op.fu_class * int) list)

let lower_bound ~limits t = max (critical_length t) (resource_bound ~limits t)

let path_length t =
  let n = n_ops t in
  let pl = Array.make n 1 in
  for i = n - 1 downto 0 do
    pl.(i) <- 1 + List.fold_left (fun acc s -> max acc pl.(s)) 0 t.succ_table.(i)
  done;
  pl

let occupancy t ~steps = tally t.cls_table steps

let to_schedule t ~steps =
  Schedule.make t.g ~steps:(fun nid -> steps.(t.index.(nid)))

let block kernel g =
  let t = of_dfg g in
  to_schedule t ~steps:(kernel t)
