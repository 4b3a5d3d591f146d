open Hls_cdfg

type t = {
  g : Dfg.t;
  ops : Dfg.nid array;
  index : (Dfg.nid, int) Hashtbl.t;
  pred_table : int list array;
  succ_table : int list array;
  cls_table : Op.fu_class array;
}

(* Occupying ancestors of a node, looking through free chains. *)
let rec eff_sources g id acc =
  if Dfg.occupies_step g id then id :: acc
  else
    match Dfg.op g id with
    | Op.Const _ | Op.Read _ -> acc
    | _ -> List.fold_left (fun acc a -> eff_sources g a acc) acc (Dfg.args g id)

let of_dfg g =
  let ops = Array.of_list (Dfg.compute_ops g) in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i nid -> Hashtbl.replace index nid i) ops;
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
      let pred_idx = List.map (Hashtbl.find index) sources in
      pred_table.(i) <- pred_idx;
      List.iter (fun p -> succ_table.(p) <- i :: succ_table.(p)) pred_idx)
    ops;
  Array.iteri (fun i s -> succ_table.(i) <- List.sort compare s) succ_table;
  { g; ops; index; pred_table; succ_table; cls_table }

let n_ops t = Array.length t.ops
let nid_of t i = t.ops.(i)
let index_of t nid = Hashtbl.find t.index nid
let preds t i = t.pred_table.(i)
let succs t i = t.succ_table.(i)
let cls t i = t.cls_table.(i)

let asap t =
  let n = n_ops t in
  let a = Array.make n 1 in
  for i = 0 to n - 1 do
    a.(i) <- 1 + List.fold_left (fun acc p -> max acc a.(p)) 0 t.pred_table.(i)
  done;
  a

let critical_length t =
  let a = asap t in
  Array.fold_left max 0 a

let alap t ~deadline =
  let n = n_ops t in
  let cl = critical_length t in
  if deadline < cl then
    invalid_arg
      (Printf.sprintf "Depgraph.alap: deadline %d below critical path %d" deadline cl);
  let l = Array.make n deadline in
  for i = n - 1 downto 0 do
    l.(i) <-
      List.fold_left (fun acc s -> min acc (l.(s) - 1)) deadline t.succ_table.(i)
  done;
  l

let resource_bound ~limits t =
  let ceil_div a b = (a + b - 1) / b in
  let count cls = Array.fold_left (fun acc c -> if c = cls then acc + 1 else acc) 0 t.cls_table in
  match limits with
  | Limits.Unlimited -> 1
  | Limits.Serial -> max 1 (n_ops t)
  | Limits.Total k -> if k <= 0 then 1 else max 1 (ceil_div (n_ops t) k)
  | Limits.Classes caps ->
      (* the first cap listed for a class binds, as in Limits.can_add *)
      List.fold_left
        (fun acc cls ->
          match List.assoc_opt cls caps with
          | Some cap when cap > 0 -> max acc (ceil_div (count cls) cap)
          | _ -> acc)
        1
        [ Op.C_alu; Op.C_mul; Op.C_div; Op.C_shift ]

let lower_bound ~limits t = max (critical_length t) (resource_bound ~limits t)

let path_length t =
  let n = n_ops t in
  let pl = Array.make n 1 in
  for i = n - 1 downto 0 do
    pl.(i) <- 1 + List.fold_left (fun acc s -> max acc pl.(s)) 0 t.succ_table.(i)
  done;
  pl

let to_schedule t ~steps =
  Schedule.make t.g ~steps:(fun nid -> steps.(index_of t nid))
