(* Test-only oracles: the exact schedulers' searches before they started
   at the lower bound. [ilp] probes every deadline from the critical
   length up; [branch_bound] always runs the full search from the list
   incumbent. Both must return exactly what Ilp_sched.schedule_dep and
   Branch_bound.schedule_dep return: the deadlines those skip are
   infeasible, and an incumbent at the bound is never strictly beaten.
   [branch_bound] counts its search nodes in [bb/nodes] like the
   library's search, so the two sides' work compares directly.
   Exponential — keep inputs small. *)

open Hls_cdfg
open Hls_sched

let ilp ~limits dep =
  let rec search deadline =
    match Ilp_sched.feasible ~limits ~deadline dep with
    | Some steps -> steps
    | None -> search (deadline + 1)
  in
  search (max 1 (Depgraph.critical_length dep))

let branch_bound ~limits dep =
  let n = Depgraph.n_ops dep in
  let incumbent = List_sched.schedule_dep ~limits dep in
  let best_len = ref (Array.fold_left max 1 incumbent) in
  let best = ref (Array.copy incumbent) in
  let tail = Depgraph.path_length dep in
  let steps = Array.make n 0 in
  let usage : (int * Op.fu_class, int) Hashtbl.t = Hashtbl.create 64 in
  let used s cls = match Hashtbl.find_opt usage (s, cls) with Some k -> k | None -> 0 in
  let counts_at s =
    List.filter_map
      (fun cls -> match used s cls with 0 -> None | k -> Some (cls, k))
      [ Op.C_alu; Op.C_mul; Op.C_div; Op.C_shift ]
  in
  let rec assign i current_max =
    Hls_obs.Trace.incr "bb/nodes";
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
      let s = ref ready in
      while max current_max (!s + tail.(i) - 1) < !best_len do
        if Limits.can_add limits ~counts:(counts_at !s) cls then begin
          steps.(i) <- !s;
          Hashtbl.replace usage (!s, cls) (used !s cls + 1);
          assign (i + 1) (max current_max !s);
          Hashtbl.replace usage (!s, cls) (used !s cls - 1);
          steps.(i) <- 0
        end;
        incr s
      done
    end
  in
  assign 0 1;
  !best
