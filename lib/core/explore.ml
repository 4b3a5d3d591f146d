open Hls_util
open Hls_sched

type point = {
  label : string;
  options : Flow.options;
  design : Flow.design;
  area : int;
  latency_ns : float;
}

let default_limits =
  [
    Limits.Serial;
    Limits.Total 2;
    Limits.Total 3;
    Limits.Total 4;
    Limits.classes [ (Hls_cdfg.Op.C_alu, 1); (Hls_cdfg.Op.C_mul, 1); (Hls_cdfg.Op.C_div, 1) ];
  ]

let default_schedulers =
  [ Flow.Asap; Flow.List_path; Flow.List_mobility; Flow.Freedom; Flow.Branch_bound;
    Flow.Ilp_exact; Flow.Trans_parallel; Flow.Trans_serial ]

let point_of label options design =
  {
    label;
    options;
    design;
    area = design.Flow.estimate.Hls_rtl.Estimate.total_area;
    latency_ns = design.Flow.estimate.Hls_rtl.Estimate.latency_ns;
  }

(* Evaluate labelled option points through a (possibly shared) engine,
   on the Result API. Sweeps surface a failed point as the legacy
   Flow.Lint_failed — a sweep's result type is the point list, and an
   engine configured without [verify] never fails. *)
let run_points ~config ~engine src labelled =
  let engine = match engine with Some e -> e | None -> Dse.create ~config src in
  let results = Dse.run_result engine (List.map snd labelled) in
  List.map2
    (fun (label, options) r ->
      match r with
      | Ok d -> point_of label options d
      | Error ds -> raise (Flow.Lint_failed ds))
    labelled results

(* A word value labels itself ("serial"); a number or flag is prefixed
   with its knob's name ("iterate 3"). *)
let cross ?(pipelines = []) ?(iterates = []) ~base ~schedulers ~limits () =
  let module K = Flow.Knob in
  let axis (type a) (k : a K.t) (vs : a list) =
    let vs = if vs = [] then [ k.K.get base ] else vs in
    let seg v =
      match k.K.kind with K.Words _ -> k.K.label v | K.Flag | K.Int -> k.K.name ^ " " ^ k.K.label v
    in
    (List.length vs > 1, List.map (fun v -> (seg v, k.K.set v)) vs)
  in
  let vary_i, iterates = axis K.iterate iterates in
  let vary_p, pipelines = axis K.passes pipelines in
  let vary_s, schedulers = axis K.scheduler schedulers in
  let vary_l, limits = axis K.limits limits in
  let point (si, fi) (sp, fp) (ss, fs) (sl, fl) =
    let keep vary seg = if vary then [ seg ] else [] in
    let head = String.concat " @ " (keep vary_s ss @ keep vary_l sl) in
    let tail = keep vary_p sp @ keep vary_i si in
    let head = if head = "" && tail = [] then ss ^ " @ " ^ sl else head in
    (String.concat " / " (List.filter (( <> ) "") (head :: tail)), base |> fi |> fp |> fs |> fl)
  in
  List.concat_map
    (fun i ->
      List.concat_map
        (fun p -> List.concat_map (fun s -> List.map (point i p s) limits) schedulers)
        pipelines)
    iterates

let sweep ?(config = Dse.default_config) ?engine ?(base = Flow.default_options)
    ?(schedulers = default_schedulers) ?(limits = default_limits) ?pipelines ?iterates
    src =
  run_points ~config ~engine src
    (cross ?pipelines ?iterates ~base ~schedulers ~limits ())

(* ---- pareto frontier ---- *)

let value_dominates (qa, ql) (pa, pl) =
  (qa <= pa && ql < pl) || (qa < pa && ql <= pl)

let dominates a b = value_dominates (a.area, a.latency_ns) (b.area, b.latency_ns)

(* Sort by (area, latency) and scan: a point survives iff it has the
   minimum latency of its equal-area group and that latency is strictly
   below every smaller-area point's. O(n log n) against the O(n²)
   all-pairs check — quadratic was fine at 40 points, not at the
   thousands a rewrite-rule sweep produces. *)
let frontier_mask values =
  let arr = Array.of_list values in
  let n = Array.length arr in
  let idx = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      let ai, li = arr.(i) and aj, lj = arr.(j) in
      if ai <> aj then compare ai aj else compare li lj)
    idx;
  let mask = Array.make n false in
  let best = ref infinity in
  let i = ref 0 in
  while !i < n do
    let a, gmin = arr.(idx.(!i)) in
    let j = ref !i in
    while !j < n && fst arr.(idx.(!j)) = a do
      let _, l = arr.(idx.(!j)) in
      if l = gmin && gmin < !best then mask.(idx.(!j)) <- true;
      incr j
    done;
    if gmin < !best then best := gmin;
    i := !j
  done;
  Array.to_list mask

let pareto points =
  let mask = frontier_mask (List.map (fun p -> (p.area, p.latency_ns)) points) in
  List.combine points mask
  |> List.filter_map (fun (p, keep) -> if keep then Some p else None)
  |> List.sort (fun a b -> compare a.area b.area)

let table ?(timings = false) points =
  (* frontier membership by the dominance criterion itself, not by
     physical identity of the point record — cached/rewrapped designs
     make physical equality meaningless *)
  let mask = frontier_mask (List.map (fun p -> (p.area, p.latency_ns)) points) in
  let t =
    Table.create ~headers:[ "design"; "FUs"; "steps"; "area"; "latency(ns)"; "pareto" ]
  in
  List.iter2
    (fun p on_front ->
      Table.add_row t
        [
          p.label;
          string_of_int (Hls_alloc.Fu_alloc.n_units p.design.Flow.fu);
          string_of_int p.design.Flow.estimate.Hls_rtl.Estimate.compute_steps;
          string_of_int p.area;
          Printf.sprintf "%.0f" p.latency_ns;
          (if on_front then "*" else "");
        ])
    points mask;
  let body = Table.render t in
  if timings then
    body
    ^ Format.asprintf "@.stage timings:@.%a" Metrics.pp_durations
        (Hls_obs.Trace.durations_snapshot ())
  else body

(* ---- sound lower bounds from the cheap stages ---- *)

(* Everything below is derived from the schedule and CFG alone — no
   allocation, binding or control synthesis — and underestimates the
   real Estimate componentwise. That soundness is what lets the pruned
   sweep discard a point before its backend runs while still
   guaranteeing the exhaustive frontier: if an evaluated design
   dominates a point's lower bounds, it dominates the point's true
   values (dominance is monotone in both coordinates), and dominance is
   transitive, so no pruned point can ever have made the frontier. *)
module Bound = struct
  (* Per-class peak demand across blocks: the allocator can share units
     between blocks but never within a step. Two floors per class, keep
     the larger. Width-aware: the operations of one step run on distinct
     units, each at least as wide as its own operation, so the busiest
     step's sum of cheapest-component areas at each operation's width is
     unavoidable. Count-based: the peak concurrent count times the
     cheapest component at the block's narrowest class width. One pass
     over each block's step grouping (steps 1 .. n). *)
  let step_floors (fl : Floors.t) lt =
    let n = List.length Hls_cdfg.Op.occupying_classes in
    let best = Array.make n 0 in
    let count = Array.make n 0 and sum = Array.make n 0 in
    Array.iteri
      (fun bid (b : Floors.block) ->
        let rows = Hls_alloc.Lifetime.by_step lt bid in
        for s = 1 to Array.length rows - 1 do
          Array.fill count 0 n 0;
          Array.fill sum 0 n 0;
          List.iter
            (fun nid ->
              let c = b.Floors.op_class.(nid) in
              count.(c) <- count.(c) + 1;
              sum.(c) <- sum.(c) + b.Floors.op_area.(nid))
            rows.(s);
          for c = 0 to n - 1 do
            best.(c) <- max best.(c) (max sum.(c) (count.(c) * b.Floors.unit_area.(c)))
          done
        done)
      fl.Floors.blocks;
    best

  (* Peak non-port storage demand: at any step boundary of a block,
     every live stored value (Lifetime) occupies a distinct register at
     least as wide as the value — variables merged across blocks and
     shared temp tracks cannot shrink a single boundary's footprint.
     Port-variable spans are excluded because the port registers are
     already counted unconditionally, so the two floors add. *)
  let live_reg_area (fl : Floors.t) lt =
    let cs = Hls_alloc.Lifetime.schedule lt in
    let acc = ref 0 in
    Array.iteri
      (fun bid (b : Floors.block) ->
        let n = Schedule.n_steps (Cfg_sched.block_schedule cs bid) in
        let diff = Array.make (n + 2) 0 in
        let add lo hi w =
          let lo = max 0 lo and hi = min n hi in
          if lo <= hi then begin
            diff.(lo) <- diff.(lo) + w;
            diff.(hi + 1) <- diff.(hi + 1) - w
          end
        in
        List.iter
          (fun (vi : Hls_alloc.Lifetime.value_info) ->
            let w = b.Floors.reg_area.(vi.Hls_alloc.Lifetime.nid) in
            match vi.Hls_alloc.Lifetime.storage with
            | Hls_alloc.Lifetime.Temp iv -> add iv.Interval.lo iv.Interval.hi w
            | Hls_alloc.Lifetime.In_variable v when not (List.mem v fl.Floors.port_names) ->
                add vi.Hls_alloc.Lifetime.produced (vi.Hls_alloc.Lifetime.last_use - 1) w
            | Hls_alloc.Lifetime.In_variable _ | Hls_alloc.Lifetime.No_storage -> ())
          (Hls_alloc.Lifetime.values lt bid);
        let run = ref 0 in
        Array.iter
          (fun d ->
            run := !run + d;
            if !run > !acc then acc := !run)
          diff)
      fl.Floors.blocks;
    !acc

  let class_floors (o : Flow.optimized) cs =
    let lt = Hls_alloc.Lifetime.table ~facts:o.Flow.o_facts cs in
    List.combine Hls_cdfg.Op.occupying_classes
      (Array.to_list (step_floors o.Flow.o_floors lt))
    |> List.filter (fun (_, a) -> a > 0)

  (* Schedule-free structural floors. Any legal schedule of a block
     spans at least its critical dependence chain, so a step (and
     state) count summed from critical lengths under-approximates every
     schedule the same CFG can carry — including whatever refinement
     ships for an [iterate > 0] point. *)
  let critical_steps (o : Flow.optimized) =
    let freq = o.Flow.o_facts.Hls_alloc.Cfg_facts.freq in
    Array.fold_left ( + ) 0
      (Array.mapi (fun bid dep -> Depgraph.critical_length dep * freq.(bid)) o.Flow.o_deps)

  let states_lb (o : Flow.optimized) =
    Array.fold_left (fun acc dep -> acc + Depgraph.critical_length dep) 0 o.Flow.o_deps

  let compute (options : Flow.options) (o : Flow.optimized) cs =
    (* the midend's floors are at declared widths; under [narrow] the
       width-dependent floors use the range analysis' inferred widths,
       the same facts the datapath narrowing consumes *)
    let fl =
      if options.Flow.narrow then begin
        let facts =
          Hls_analysis.Range.analyze ~ports:(Flow.ports_of o.Flow.o_prog) o.Flow.o_cfg
        in
        Floors.make
          ~node_w:(fun _g bid nid -> Hls_analysis.Range.node_bits facts ~bid ~nid)
          ~ports:(List.map (fun (n, _, ty) -> (n, ty)) (Flow.ports_of o.Flow.o_prog))
          o.Flow.o_facts
      end
      else o.Flow.o_floors
    in
    (* a point with [iterate > 0] may ship a refined schedule that
       differs from the one the cheap stages produced (refinement
       replaces whole block schedules, constrained only by dependences
       and the point's effective limits), so every schedule-derived
       floor is replaced by its schedule-free counterpart; one-shot
       points keep the tighter schedule-derived bounds. *)
    let sf = options.Flow.iterate > 0 in
    let states = if sf then states_lb o else Cfg_sched.total_states cs in
    (* the controller keeps at least its state register *)
    let ctrl =
      Hls_rtl.Component.register_area
        ~width:(Hls_ctrl.Encoding.width options.Flow.encoding ~n_states:(max 1 states))
    in
    let schedule_area =
      if sf then Floors.fu_area fl ~class_floor:(fun _ -> 0)
      else begin
        let lt = Hls_alloc.Lifetime.table ~facts:o.Flow.o_facts cs in
        let floors = step_floors fl lt in
        Floors.fu_area fl ~class_floor:(fun cls -> floors.(Floors.class_index cls))
        + live_reg_area fl lt
      end
    in
    let area = schedule_area + fl.Floors.port_reg_area + fl.Floors.reg_mux_area + ctrl in
    let steps = if sf then critical_steps o else Cfg_sched.compute_steps cs in
    (area, fl.Floors.cycle_ns *. float_of_int steps)
end

(* ---- pruned sweep: pareto-guided successive halving ---- *)

type pruned_point = {
  pr_label : string;
  pr_options : Flow.options;
  pr_area_lb : int;
  pr_latency_lb : float;
}

type pruned_sweep = {
  evaluated : point list;
  pruned : pruned_point list;
  rounds : int;
}

(* Promotion window: at most this many promoted classes wait for their
   backend verdict while later classes are decided. A promotion is
   evaluated on the calling domain when it leaves the window, oldest
   first, so every promotion, pruning and counter is identical at any
   job count. *)
let promote_window = 4

let run_points_pruned ~config ~engine src labelled =
  let engine = match engine with Some e -> e | None -> Dse.create ~config src in
  let jobs = (Dse.config engine).Dse.jobs in
  let n = List.length labelled in
  let items = Array.of_list labelled in
  (* rank pass: every point through the (memoized) cheap stages *)
  let cheap =
    Array.of_list
      (Pool.map ~jobs (fun (_, options) -> Dse.eval_class engine options) labelled)
  in
  let keys = Array.map (fun (_, _, key) -> key) cheap in
  (* each class's first member is its representative *)
  let first_of = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    Hashtbl.replace first_of keys.(i) i
  done;
  (* one bound per class: the key covers everything [Bound.compute]
     reads (the midend key, the schedule digest, [narrow], [encoding]
     and [iterate]), so members copy their representative's value,
     which ascending order has already filled *)
  let lbs = Array.make n (0, 0.0) in
  for i = 0 to n - 1 do
    let rep = Hashtbl.find first_of keys.(i) in
    lbs.(i) <-
      (if rep < i then lbs.(rep)
       else
         let _, options = items.(i) in
         let o, cs, _ = cheap.(i) in
         Bound.compute options o cs)
  done;
  let score i = float_of_int (fst lbs.(i)) *. max 1.0 (snd lbs.(i)) in
  let status = Array.make n `Pending in
  let is_pending i = match status.(i) with `Pending -> true | _ -> false in
  let class_value : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  let reals = ref [] in
  let dominated v = List.exists (fun q -> value_dominates q v) !reals in
  let prune i =
    status.(i) <- `Pruned;
    Hls_obs.Trace.incr "dse/pruned_points"
  in
  let settle i r =
    match r with
    | Error ds -> raise (Flow.Lint_failed ds)
    | Ok d ->
        let label, options = items.(i) in
        let p = point_of label options d in
        status.(i) <- `Evaluated p;
        Hls_obs.Trace.incr "dse/points_evaluated";
        Hashtbl.replace class_value keys.(i) (p.area, p.latency_ns);
        reals := (p.area, p.latency_ns) :: !reals
  in
  (* one decision per backend class — duplicate schedules never burn a
     promotion slot — most promising bound-score first: the successive-
     halving ranking collapsed to a total order now that verdicts
     arrive through the window instead of round-synchronously *)
  let class_order =
    Hashtbl.fold (fun _ i acc -> i :: acc) first_of []
    |> List.sort (fun i j -> compare (score i, i) (score j, j))
  in
  let window = Queue.create () in
  let rounds = ref 0 in
  let drain_one () =
    let i = Queue.pop window in
    incr rounds;
    settle i (Dse.eval_result engine (snd items.(i)))
  in
  List.iter
    (fun rep ->
      (* decide this class on exactly the verdicts incorporated so far:
         prune what the evaluated designs already dominate, promote the
         first member still standing *)
      let members = ref [] in
      for i = n - 1 downto 0 do
        if keys.(i) = keys.(rep) && is_pending i then
          if dominated lbs.(i) then prune i else members := i :: !members
      done;
      match !members with
      | [] -> () (* the whole class fell to its bounds — never promoted *)
      | i :: _ ->
          if Queue.length window >= promote_window then drain_one ();
          Queue.push i window)
    class_order;
  while not (Queue.is_empty window) do
    drain_one ()
  done;
  (* every surviving point's class is now evaluated: non-dominated ones
     materialize from the backend cache, the rest are pruned by their
     exact value *)
  let survivors = ref [] in
  for i = n - 1 downto 0 do
    if is_pending i then begin
      let v = Hashtbl.find class_value keys.(i) in
      if dominated v then prune i else survivors := i :: !survivors
    end
  done;
  List.iter2 settle !survivors
    (Dse.run_result engine (List.map (fun i -> snd items.(i)) !survivors));
  let indices = List.init n Fun.id in
  let evaluated =
    List.filter_map
      (fun i -> match status.(i) with `Evaluated p -> Some p | _ -> None)
      indices
  in
  let pruned =
    List.filter_map
      (fun i ->
        match status.(i) with
        | `Pruned ->
            let label, options = items.(i) in
            Some
              {
                pr_label = label;
                pr_options = options;
                pr_area_lb = fst lbs.(i);
                pr_latency_lb = snd lbs.(i);
              }
        | _ -> None)
      indices
  in
  Hls_obs.Trace.record_max "dse/prune_rounds" !rounds;
  { evaluated; pruned; rounds = !rounds }

let sweep_pruned ?(config = Dse.default_config) ?engine ?(base = Flow.default_options)
    ?(schedulers = default_schedulers) ?(limits = default_limits) ?pipelines ?iterates
    src =
  run_points_pruned ~config ~engine src
    (cross ?pipelines ?iterates ~base ~schedulers ~limits ())
