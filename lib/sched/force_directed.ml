let distribution dep ~asap ~alap ~cls ~deadline =
  let dg = Array.make deadline 0.0 in
  for i = 0 to Depgraph.n_ops dep - 1 do
    if Depgraph.cls dep i = cls then begin
      let width = alap.(i) - asap.(i) + 1 in
      let p = 1.0 /. float_of_int width in
      for s = asap.(i) to alap.(i) do
        dg.(s - 1) <- dg.(s - 1) +. p
      done
    end
  done;
  dg

let avg_over dg lo hi =
  let sum = ref 0.0 in
  for s = lo to hi do
    sum := !sum +. dg.(s - 1)
  done;
  !sum /. float_of_int (hi - lo + 1)

(* The seed implementation: after every placement, recompute both time
   frames, every distribution graph and the force of every remaining
   (op, step) candidate — O(rounds x candidates x frame-width x degree)
   float work. Kept as the oracle for the differential tests and as the
   benchmark baseline (the PR-1 convention). *)
(* Shared pin validation: pins must name real ops, stay inside
   [1, deadline], agree with each other, and respect dependences among
   themselves. Pins that merely squeeze an unpinned op out of any
   feasible step surface as the scheduler's "no feasible placement"
   [Invalid_argument] instead — both failure modes raise, so a caller
   probing perturbations can simply catch [Invalid_argument]. *)
let check_pins dep ~deadline pins =
  let n = Depgraph.n_ops dep in
  let pinned = Array.make n None in
  List.iter
    (fun (i, s) ->
      if i < 0 || i >= n then
        invalid_arg (Printf.sprintf "Force_directed: pin on unknown op %d" i);
      if s < 1 || s > deadline then
        invalid_arg
          (Printf.sprintf "Force_directed: pin of op %d at step %d outside 1..%d" i s
             deadline);
      (match pinned.(i) with
      | Some s' when s' <> s ->
          invalid_arg
            (Printf.sprintf "Force_directed: conflicting pins for op %d (%d vs %d)" i
               s' s)
      | _ -> ());
      pinned.(i) <- Some s)
    pins;
  for i = 0 to n - 1 do
    match pinned.(i) with
    | None -> ()
    | Some s ->
        List.iter
          (fun p ->
            match pinned.(p) with
            | Some sp when sp >= s ->
                invalid_arg
                  (Printf.sprintf
                     "Force_directed: pinned ops %d@%d -> %d@%d violate a dependence"
                     p sp i s)
            | _ -> ())
          (Depgraph.preds dep i)
  done;
  pinned

let schedule_dep_reference ?on_fix ?(pins = []) ~deadline dep =
  let n = Depgraph.n_ops dep in
  let cl = Depgraph.critical_length dep in
  if deadline < cl then
    invalid_arg
      (Printf.sprintf "Force_directed: deadline %d below critical path %d" deadline cl);
  let force_evals = ref 0 in
  let fixed = check_pins dep ~deadline pins in
  let n_pinned = Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 fixed in
  let classes =
    List.sort_uniq compare (List.init n (fun i -> Depgraph.cls dep i))
  in
  let remaining = ref (n - n_pinned) in
  while !remaining > 0 do
    let asap, alap = Depgraph.frames dep ~deadline ~fixed in
    let dgs =
      List.map (fun c -> (c, distribution dep ~asap ~alap ~cls:c ~deadline)) classes
    in
    let dg_of c = List.assoc c dgs in
    (* self force of placing op i at step s *)
    let self_force i s =
      let dg = dg_of (Depgraph.cls dep i) in
      dg.(s - 1) -. avg_over dg asap.(i) alap.(i)
    in
    (* change in a neighbor's average distribution when its frame is
       clipped by fixing op i at step s *)
    let neighbor_force i s =
      let clip j (lo, hi) =
        let dg = dg_of (Depgraph.cls dep j) in
        if lo > hi then 0.0 (* infeasible placements are filtered below *)
        else avg_over dg lo hi -. avg_over dg asap.(j) alap.(j)
      in
      List.fold_left
        (fun acc p -> acc +. clip p (asap.(p), min alap.(p) (s - 1)))
        0.0 (Depgraph.preds dep i)
      +. List.fold_left
           (fun acc q -> acc +. clip q (max asap.(q) (s + 1), alap.(q)))
           0.0 (Depgraph.succs dep i)
    in
    let best = ref None in
    for i = 0 to n - 1 do
      if fixed.(i) = None then
        for s = asap.(i) to alap.(i) do
          (* a placement must leave every neighbor a feasible frame *)
          let feasible =
            List.for_all (fun p -> asap.(p) <= s - 1) (Depgraph.preds dep i)
            && List.for_all (fun q -> alap.(q) >= s + 1) (Depgraph.succs dep i)
          in
          if feasible then begin
            incr force_evals;
            let f = self_force i s +. neighbor_force i s in
            match !best with
            | Some (bf, _, _) when bf <= f -> ()
            | _ -> best := Some (f, i, s)
          end
        done
    done;
    match !best with
    | Some (_, i, s) ->
        (match on_fix with Some f -> f i s | None -> ());
        fixed.(i) <- Some s;
        decr remaining
    | None -> invalid_arg "Force_directed: no feasible placement (internal)"
  done;
  Hls_obs.Trace.add "sched/fd_ref_force_evals" !force_evals;
  Array.map (function Some s -> s | None -> 1) fixed

(* ------------------------------------------------------------------ *)
(* Incremental kernel                                                  *)
(* ------------------------------------------------------------------ *)

(* Cached candidate summary of one unfixed op over its current frame.
   Only steps in [r_flo, r_fhi] are feasible (the reference's per-pred /
   per-succ feasibility test is equivalent to the interval
   [max_p asap(p) + 1, min_q alap(q) - 1]); [r_min]/[r_argmin] hold the
   lowest candidate force and the first step attaining it — the only
   data the global argmin scan ever reads, since the reference's
   [bf <= f] skip keeps the earliest of equals both within a row and
   across rows. A row stays valid only while every input it read — the
   op's own frame, each neighbor's frame, and the distribution-graph
   values inside those windows — is unchanged, so a cached float is
   always the exact float a full recomputation would produce. *)
type row = {
  mutable r_flo : int;
  mutable r_fhi : int;
  mutable r_min : float;
  mutable r_argmin : int;
  mutable r_valid : bool;
}

(* Incremental force-directed scheduling. Same placements as
   {!schedule_dep_reference}, bit for bit, but after each placement only
   the work that placement actually perturbed is redone:

   - time frames are narrowed with ASAP/ALAP worklists that re-propagate
     only through ops whose bounds changed (integers, so trivially exact);
   - distribution graphs are rebuilt only for classes containing an op
     whose frame moved, with the oracle's own summation loop so the
     array contents are float-identical to a from-scratch build;
   - candidate forces are cached per op and recomputed only when the
     op's frame, a neighbor's frame, or a distribution graph under one
     of their windows changed. Recomputation uses the oracle's formulas
     evaluated in the oracle's operation order, so cache hits and misses
     alike yield the reference's exact floats and the (op, step) argmin
     scan — same order, same <= tie-break — picks the same placement. *)
let schedule_dep ?on_fix ?(pins = []) ~deadline dep =
  let n = Depgraph.n_ops dep in
  let cl = Depgraph.critical_length dep in
  if deadline < cl then
    invalid_arg
      (Printf.sprintf "Force_directed: deadline %d below critical path %d" deadline cl);
  (* work counters, flushed to the trace sink once at the end *)
  let c_placements = ref 0 and c_frame_updates = ref 0 and c_dg_rebuilds = ref 0 in
  let c_rows_built = ref 0 and c_rows_cached = ref 0 and c_force_evals = ref 0 in
  let pinned = check_pins dep ~deadline pins in
  let n_pinned =
    Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 pinned
  in
  let fixed = Array.make n false in
  Array.iteri (fun i p -> if p <> None then fixed.(i) <- true) pinned;
  (* initial frames: the reference's with exactly the pins fixed *)
  let asap, alap = Depgraph.frames dep ~deadline ~fixed:pinned in
  (* dense class ids *)
  let classes =
    List.sort_uniq compare (List.init n (fun i -> Depgraph.cls dep i))
  in
  let n_cls = List.length classes in
  let cid = Array.make n 0 in
  List.iteri
    (fun ci c ->
      for i = 0 to n - 1 do
        if Depgraph.cls dep i = c then cid.(i) <- ci
      done)
    classes;
  (* Per-class distribution graphs, rebuilt with the oracle's loop, plus
     a triangular window-average table: [avgs.(ci).(lo).(hi)] is the
     ascending sum dg.(lo-1) + ... + dg.(hi-1) accumulated in exactly
     [avg_over]'s order, divided by the window width — so every average
     the oracle would compute with an O(width) loop is an O(1) lookup
     with the identical float value. *)
  let dgs = Array.make (max n_cls 1) [||] in
  let avgs = Array.make (max n_cls 1) [||] in
  for ci = 0 to n_cls - 1 do
    avgs.(ci) <- Array.init (deadline + 1) (fun _ -> Array.make (deadline + 1) 0.0)
  done;
  (* class member lists in ascending op order (the oracle's scan order) *)
  let members = Array.make (max n_cls 1) [||] in
  for ci = 0 to n_cls - 1 do
    members.(ci) <-
      Array.of_list (List.filter (fun i -> cid.(i) = ci) (List.init n (fun i -> i)))
  done;
  let rebuild_dg ci =
    incr c_dg_rebuilds;
    let dg = Array.make deadline 0.0 in
    Array.iter
      (fun i ->
        let width = alap.(i) - asap.(i) + 1 in
        let p = 1.0 /. float_of_int width in
        for s = asap.(i) to alap.(i) do
          dg.(s - 1) <- dg.(s - 1) +. p
        done)
      members.(ci);
    dgs.(ci) <- dg;
    let tab = avgs.(ci) in
    for lo = 1 to deadline do
      let row = tab.(lo) in
      let acc = ref 0.0 in
      for hi = lo to deadline do
        acc := !acc +. dg.(hi - 1);
        row.(hi) <- !acc /. float_of_int (hi - lo + 1)
      done
    done
  in
  for ci = 0 to n_cls - 1 do rebuild_dg ci done;
  (* identical float to [avg_over dgs.(ci) lo hi] *)
  let avg ci lo hi = avgs.(ci).(lo).(hi) in
  (* neighbor lists as flat int arrays for the hot loops *)
  let preds_a = Array.init n (fun i -> Array.of_list (Depgraph.preds dep i)) in
  let succs_a = Array.init n (fun i -> Array.of_list (Depgraph.succs dep i)) in
  let rows =
    Array.init n (fun _ ->
        { r_flo = 1; r_fhi = 0; r_min = infinity; r_argmin = 0; r_valid = false })
  in
  (* neighbor-force accumulators over the feasible interval; entry
     [s - flo] collects clip terms in the reference's neighbor order, so
     each per-step sum is the reference's fold, term for term *)
  let pbuf = Array.make deadline 0.0 in
  let qbuf = Array.make deadline 0.0 in
  let build_row i =
    incr c_rows_built;
    let lo = asap.(i) and hi = alap.(i) in
    let ci = cid.(i) in
    let dg = dgs.(ci) in
    (* the reference recomputes these averages for every candidate step;
       they do not depend on [s], so one evaluation (of the very same
       summation, via the table) is the same float *)
    let own_avg = avg ci lo hi in
    let preds = preds_a.(i) and succs = succs_a.(i) in
    let np = Array.length preds and nq = Array.length succs in
    (* the reference's per-neighbor feasibility test, as an interval *)
    let flo = ref lo and fhi = ref hi in
    for k = 0 to np - 1 do
      let a = asap.(preds.(k)) + 1 in
      if a > !flo then flo := a
    done;
    for k = 0 to nq - 1 do
      let l = alap.(succs.(k)) - 1 in
      if l < !fhi then fhi := l
    done;
    let flo = !flo and fhi = !fhi in
    let w = fhi - flo + 1 in
    let rm = ref infinity and ra = ref 0 in
    if w > 0 then begin
      c_force_evals := !c_force_evals + w;
      Array.fill pbuf 0 w 0.0;
      Array.fill qbuf 0 w 0.0;
      for k = 0 to np - 1 do
        let p = preds.(k) in
        let ap = asap.(p) and lp = alap.(p) in
        let whole = avg cid.(p) ap lp in
        let trow = avgs.(cid.(p)).(ap) in
        for s = flo to fhi do
          let hi' = if lp < s - 1 then lp else s - 1 in
          pbuf.(s - flo) <-
            pbuf.(s - flo) +. (if ap > hi' then 0.0 else trow.(hi') -. whole)
        done
      done;
      for k = 0 to nq - 1 do
        let q = succs.(k) in
        let aq = asap.(q) and lq = alap.(q) in
        let whole = avg cid.(q) aq lq in
        let tq = avgs.(cid.(q)) in
        for s = flo to fhi do
          let lo' = if aq > s + 1 then aq else s + 1 in
          qbuf.(s - flo) <-
            qbuf.(s - flo) +. (if lo' > lq then 0.0 else tq.(lo').(lq) -. whole)
        done
      done;
      for s = flo to fhi do
        let f = (dg.(s - 1) -. own_avg) +. (pbuf.(s - flo) +. qbuf.(s - flo)) in
        if f < !rm then begin
          rm := f;
          ra := s
        end
      done
    end;
    let r = rows.(i) in
    r.r_flo <- flo;
    r.r_fhi <- fhi;
    r.r_min <- !rm;
    r.r_argmin <- !ra;
    r.r_valid <- true
  in
  (* per-round bookkeeping, allocated once *)
  let old_asap = Array.make n 0 and old_alap = Array.make n 0 in
  let rec_stamp = Array.make n (-1) in
  let round = ref 0 in
  let dirty_lo = Array.make (max n_cls 1) max_int in
  let dirty_hi = Array.make (max n_cls 1) min_int in
  let remaining = ref (n - n_pinned) in
  let fwd = Queue.create () and bwd = Queue.create () in
  while !remaining > 0 do
    (* argmin scan; strict [<] keeps the first of equals, matching the
       reference's [bf <= f] skip *)
    let best_f = ref infinity and best_i = ref (-1) and best_s = ref 0 in
    for i = 0 to n - 1 do
      if not fixed.(i) then begin
        if rows.(i).r_valid then incr c_rows_cached else build_row i;
        let r = rows.(i) in
        if r.r_fhi >= r.r_flo then begin
          let f = r.r_min in
          if !best_i < 0 || f < !best_f then begin
            best_f := f;
            best_i := i;
            best_s := r.r_argmin
          end
        end
      end
    done;
    match !best_i with
    | -1 -> invalid_arg "Force_directed: no feasible placement (internal)"
    | i ->
        let s = !best_s in
        incr c_placements;
        (match on_fix with Some f -> f i s | None -> ());
        fixed.(i) <- true;
        incr round;
        let changed = ref [] in
        let note j =
          if rec_stamp.(j) <> !round then begin
            rec_stamp.(j) <- !round;
            old_asap.(j) <- asap.(j);
            old_alap.(j) <- alap.(j);
            changed := j :: !changed
          end
        in
        if asap.(i) <> s || alap.(i) <> s then note i;
        let asap_moved = asap.(i) <> s and alap_moved = alap.(i) <> s in
        asap.(i) <- s;
        alap.(i) <- s;
        (* forward ASAP worklist; fixed ops pin their bound, stopping
           propagation exactly where the reference's override would *)
        if asap_moved then Array.iter (fun q -> Queue.push q fwd) succs_a.(i);
        while not (Queue.is_empty fwd) do
          let j = Queue.pop fwd in
          if not fixed.(j) then begin
            let lo =
              1 + Array.fold_left (fun acc p -> max acc asap.(p)) 0 preds_a.(j)
            in
            if lo <> asap.(j) then begin
              note j;
              asap.(j) <- lo;
              Array.iter (fun q -> Queue.push q fwd) succs_a.(j)
            end
          end
        done;
        (* backward ALAP worklist *)
        if alap_moved then Array.iter (fun p -> Queue.push p bwd) preds_a.(i);
        while not (Queue.is_empty bwd) do
          let j = Queue.pop bwd in
          if not fixed.(j) then begin
            let hi =
              Array.fold_left (fun acc q -> min acc (alap.(q) - 1)) deadline succs_a.(j)
            in
            if hi <> alap.(j) then begin
              note j;
              alap.(j) <- hi;
              Array.iter (fun p -> Queue.push p bwd) preds_a.(j)
            end
          end
        done;
        c_frame_updates := !c_frame_updates + List.length !changed;
        (* moved frames dirty their class's distribution graph over the
           union of old and new windows, and directly invalidate the
           moved op's and its neighbors' cached forces *)
        List.iter
          (fun j ->
            let ci = cid.(j) in
            dirty_lo.(ci) <- min dirty_lo.(ci) (min old_asap.(j) asap.(j));
            dirty_hi.(ci) <- max dirty_hi.(ci) (max old_alap.(j) alap.(j));
            rows.(j).r_valid <- false;
            Array.iter (fun p -> rows.(p).r_valid <- false) preds_a.(j);
            Array.iter (fun q -> rows.(q).r_valid <- false) succs_a.(j))
          !changed;
        let any_dirty = ref false in
        for ci = 0 to n_cls - 1 do
          if dirty_lo.(ci) <= dirty_hi.(ci) then begin
            any_dirty := true;
            rebuild_dg ci
          end
        done;
        (* a surviving row also dies if a rebuilt distribution graph
           changed under its own window or under a neighbor's window:
           for each op [j] in a dirty class whose frame overlaps the
           dirty range, kill [j]'s row and its neighbors' rows (the
           symmetric statement of "row k reads a changed window") *)
        if !any_dirty then begin
          for ci = 0 to n_cls - 1 do
            if dirty_lo.(ci) <= dirty_hi.(ci) then begin
              let dlo = dirty_lo.(ci) and dhi = dirty_hi.(ci) in
              Array.iter
                (fun j ->
                  if dlo <= alap.(j) && dhi >= asap.(j) then begin
                    rows.(j).r_valid <- false;
                    Array.iter (fun p -> rows.(p).r_valid <- false) preds_a.(j);
                    Array.iter (fun q -> rows.(q).r_valid <- false) succs_a.(j)
                  end)
                members.(ci);
              dirty_lo.(ci) <- max_int;
              dirty_hi.(ci) <- min_int
            end
          done
        end;
        decr remaining
  done;
  Hls_obs.Trace.add "sched/fd_placements" !c_placements;
  Hls_obs.Trace.add "sched/fd_frame_updates" !c_frame_updates;
  Hls_obs.Trace.add "sched/fd_dg_rebuilds" !c_dg_rebuilds;
  Hls_obs.Trace.add "sched/fd_rows_built" !c_rows_built;
  Hls_obs.Trace.add "sched/fd_rows_cached" !c_rows_cached;
  Hls_obs.Trace.add "sched/fd_force_evals" !c_force_evals;
  let steps = Array.make n 1 in
  for i = 0 to n - 1 do
    steps.(i) <- asap.(i)
  done;
  steps
