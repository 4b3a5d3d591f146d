(* DSE engine tests: the worker pool (real domains, result ordering,
   exception propagation), the JSON emitter/parser behind the benchmark
   report, determinism of the memoized parallel sweep (jobs=1 = jobs=4 =
   unmemoized serial, design for design), cache-layer accounting, and
   the structural Pareto marking in Explore.table. *)

open Hls_util
open Hls_core

(* {!Dse.eval_result} of a point that must synthesize *)
let eval_ok engine options =
  match Dse.eval_result engine options with
  | Ok d -> d
  | Error ds ->
      Alcotest.failf "lint: %s"
        (String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds))

(* ---- worker pool ---- *)

let test_pool_map_order () =
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "jobs=4 preserves input order" (List.map (fun x -> x * x) xs)
    (Pool.map ~jobs:4 (fun x -> x * x) xs)

let test_pool_inline () =
  Alcotest.(check (list int)) "jobs=1 runs inline" [ 2; 4 ] (Pool.map (( * ) 2) [ 1; 2 ]);
  Alcotest.(check (list int)) "empty list" [] (Pool.map ~jobs:4 Fun.id [])

let test_pool_more_jobs_than_work () =
  Alcotest.(check (list int))
    "8 workers, 3 items" [ 1; 2; 3 ]
    (Pool.map ~jobs:8 Fun.id [ 1; 2; 3 ])

let test_pool_exception () =
  Alcotest.check_raises "first exception in input order wins"
    (Failure "boom 2")
    (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x >= 2 then failwith (Printf.sprintf "boom %d" x) else x)
           [ 0; 1; 2; 3; 4 ]))

let test_pool_submit_after_shutdown () =
  let p = Pool.create ~workers:2 in
  let hits = Atomic.make 0 in
  Pool.submit p (fun () -> Atomic.incr hits);
  Pool.submit p (fun () -> Atomic.incr hits);
  Pool.shutdown p;
  Alcotest.(check int) "queued tasks ran" 2 (Atomic.get hits);
  Alcotest.check_raises "submit after shutdown rejected"
    (Invalid_argument "Pool.submit: pool is shut down")
    (fun () -> Pool.submit p (fun () -> ()))

let test_pool_lazy_no_spawn () =
  (* a sweep that fits one chunk must run inline: no domain spawned,
     whatever the machine *)
  let spawned0 = Hls_obs.Trace.counter "pool/domains_spawned" in
  let fallbacks0 = Hls_obs.Trace.counter "pool/serial_fallbacks" in
  let r = Pool.map ~jobs:8 (fun x -> x + 1) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "result" [ 2; 3; 4 ] r;
  Alcotest.(check int) "no domain spawned for a one-chunk sweep" spawned0
    (Hls_obs.Trace.counter "pool/domains_spawned");
  Alcotest.(check bool) "serial fallback engaged" true
    (Hls_obs.Trace.counter "pool/serial_fallbacks" > fallbacks0)

let test_pool_explicit_chunked () =
  (* an explicit pool with spare workers exercises the chunked path
     deterministically even on a single-core machine *)
  let p = Pool.create ~workers:2 in
  let xs = List.init 24 Fun.id in
  let spawned0 = Hls_obs.Trace.counter "pool/domains_spawned" in
  let r = Pool.map ~pool:p ~jobs:2 (fun x -> x * 3) xs in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * 3) xs) r;
  Alcotest.(check bool) "worker spawned lazily on demand" true
    (Hls_obs.Trace.counter "pool/domains_spawned" > spawned0);
  Alcotest.(check (list int)) "pool is reusable" xs (Pool.map ~pool:p ~jobs:2 Fun.id xs);
  Alcotest.check_raises "first exception in input order through chunks"
    (Failure "boom 7") (fun () ->
      ignore
        (Pool.map ~pool:p ~jobs:2
           (fun x -> if x >= 7 then failwith (Printf.sprintf "boom %d" x) else x)
           xs));
  Pool.shutdown p

(* ---- json ---- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "dse \"bench\"\n");
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.Arr [ Json.Num 1.0; Json.Num (-2.5); Json.Obj [] ]);
        ("empty", Json.Arr []);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)

let test_json_accessors () =
  let v = Json.Obj [ ("speedup", Json.Num 2.5); ("ok", Json.Bool true) ] in
  Alcotest.(check (option (float 1e-9)))
    "member/to_float" (Some 2.5)
    (Option.bind (Json.member "speedup" v) Json.to_float);
  Alcotest.(check (option bool))
    "member/to_bool" (Some true)
    (Option.bind (Json.member "ok" v) Json.to_bool);
  Alcotest.(check (option bool)) "missing member" None
    (Option.bind (Json.member "nope" v) Json.to_bool)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* ---- engine determinism ---- *)

let signature (d : Flow.design) =
  ( d.Flow.estimate.Hls_rtl.Estimate.total_area,
    d.Flow.estimate.Hls_rtl.Estimate.latency_ns,
    d.Flow.estimate.Hls_rtl.Estimate.compute_steps,
    Hls_alloc.Fu_alloc.n_units d.Flow.fu,
    Hls_alloc.Reg_alloc.n_registers d.Flow.regs,
    List.length d.Flow.transfers,
    Hls_sched.Cfg_sched.digest d.Flow.sched )

let sweep ~memoize ~jobs src =
  let config = { Dse.default_config with Dse.jobs; memoize } in
  Explore.sweep ~engine:(Dse.create ~config src) src

let test_sweep_deterministic () =
  let src = Workloads.diffeq in
  let serial = sweep ~memoize:false ~jobs:1 src in
  let memo1 = sweep ~memoize:true ~jobs:1 src in
  let memo4 = sweep ~memoize:true ~jobs:4 src in
  let sg l = List.map (fun p -> signature p.Explore.design) l in
  let labels l = List.map (fun p -> p.Explore.label) l in
  Alcotest.(check int) "40 points" 40 (List.length serial);
  Alcotest.(check bool) "labels stable" true
    (labels serial = labels memo1 && labels memo1 = labels memo4);
  Alcotest.(check bool) "memoized jobs=1 = unmemoized serial" true (sg serial = sg memo1);
  Alcotest.(check bool) "jobs=4 = jobs=1" true (sg memo1 = sg memo4)

let test_point_keeps_own_options () =
  (* a backend cache hit must be rewrapped with the point's options *)
  let src = Workloads.diffeq in
  let points = sweep ~memoize:true ~jobs:1 src in
  List.iter
    (fun (p : Explore.point) ->
      Alcotest.(check bool)
        (p.Explore.label ^ " carries its own options")
        true
        (p.Explore.options = p.Explore.design.Flow.options))
    points

(* cross labels name only the axes that vary *)
let test_cross_labels () =
  let labels ?iterates ~schedulers ~limits () =
    List.map fst (Explore.cross ?iterates ~base:Flow.default_options ~schedulers ~limits ())
  in
  let l = Explore.default_limits and s = Explore.default_schedulers in
  Alcotest.(check (list string)) "limits only"
    [ "serial"; "2 FUs"; "3 FUs"; "4 FUs"; "1 alu, 1 mul, 1 div" ]
    (labels ~schedulers:[ Flow.List_path ] ~limits:l ());
  Alcotest.(check string) "schedulers only" "list/path"
    (List.nth (labels ~schedulers:s ~limits:[ Hls_sched.Limits.two_fu ] ()) 1);
  let full = labels ~schedulers:s ~limits:l () in
  Alcotest.(check int) "8 x 5" 40 (List.length full);
  Alcotest.(check string) "cross product" "asap @ serial" (List.hd full);
  Alcotest.(check string) "refinement axis" "list/path @ 2 FUs / iterate 3"
    (List.nth (labels ~iterates:[ 0; 3 ] ~schedulers:s ~limits:l ()) 46);
  Alcotest.(check (list string)) "one point" [ "list/path @ 2 FUs" ]
    (labels ~schedulers:[] ~limits:[] ())

let test_cache_accounting () =
  let src = Workloads.diffeq in
  let engine = Dse.create src in
  let points = Explore.sweep ~engine src in
  let s = Dse.stats engine in
  let n = List.length points in
  let total l = l.Dse.hits + l.Dse.misses in
  Alcotest.(check int) "frontend probed per point" n (total s.Dse.frontend);
  Alcotest.(check int) "frontend compiled once" 1 s.Dse.frontend.Dse.misses;
  Alcotest.(check int) "one midend per (opt,ifc)" 1 s.Dse.midend.Dse.misses;
  Alcotest.(check bool) "schedule layer shares limit-ignoring schedulers" true
    (s.Dse.schedule.Dse.misses < n);
  Alcotest.(check bool) "backend layer shares coinciding schedules" true
    (s.Dse.backend.Dse.misses < n && s.Dse.backend.Dse.hits > 0);
  (* a second identical sweep is answered entirely from the cache *)
  let again = Explore.sweep ~engine src in
  let s2 = Dse.stats engine in
  Alcotest.(check int) "no new backend misses" s.Dse.backend.Dse.misses
    s2.Dse.backend.Dse.misses;
  Alcotest.(check bool) "same results" true
    (List.map (fun p -> signature p.Explore.design) points
    = List.map (fun p -> signature p.Explore.design) again);
  Alcotest.(check int) "control probed by backend misses only" s.Dse.backend.Dse.misses
    (total s.Dse.control);
  Alcotest.(check bool) "control shares equal FSMs" true
    (s.Dse.control.Dse.misses <= s.Dse.backend.Dse.misses && s.Dse.control.Dse.hits > 0);
  Dse.clear engine;
  let s3 = Dse.stats engine in
  Alcotest.(check int) "clear zeroes counters" 0
    (total s3.Dse.frontend + total s3.Dse.midend + total s3.Dse.schedule
   + total s3.Dse.backend + total s3.Dse.control)

(* ---- shared controllers ---- *)

(* The control layer hands designs whose FSMs coincide one controller
   synthesis. Every design of a memoized sweep must still be the value a
   fresh, unmemoized Flow run builds, Marshal image included, and its
   controller must drive its own datapath's FSM. *)
let check_against_fresh name compiled engine points =
  let o =
    Flow.midend ~passes:Flow.default_options.Flow.passes ~if_conversion:false compiled
  in
  List.iter2
    (fun (label, options) r ->
      match (r, Flow.backend_result options o) with
      | Ok d, Ok fresh ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s: digest of a fresh run" name label)
            (Dse.design_digest fresh) (Dse.design_digest d);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: controller over the design's own FSM" name label)
            true
            (Hls_ctrl.Ctrl_synth.fsm d.Flow.controller == d.Flow.datapath.Hls_rtl.Datapath.fsm)
      | _ -> Alcotest.failf "%s %s: backend failed" name label)
    points
    (Dse.run_result engine (List.map snd points))

let default_cross base =
  Explore.cross ~base ~schedulers:Explore.default_schedulers ~limits:Explore.default_limits ()

let test_shared_controllers_workloads () =
  let bases =
    List.concat_map
      (fun encoding ->
        List.map
          (fun narrow -> { Flow.default_options with Flow.encoding; narrow })
          [ false; true ])
      [ Hls_ctrl.Encoding.Binary; Hls_ctrl.Encoding.One_hot; Hls_ctrl.Encoding.Gray ]
  in
  List.iter
    (fun (name, src) ->
      let engine = Dse.create src in
      check_against_fresh name (Flow.frontend src) engine (List.concat_map default_cross bases);
      let s = Dse.stats engine in
      Alcotest.(check bool)
        (name ^ ": controllers shared") true
        (s.Dse.control.Dse.hits > 0 && s.Dse.control.Dse.misses <= s.Dse.backend.Dse.misses))
    Workloads.all

let test_shared_controllers_random () =
  for seed = 1 to 20 do
    let ast = Gen.program_of_seed seed in
    check_against_fresh
      (Printf.sprintf "program %d" seed)
      (Flow.frontend_program ast) (Dse.create_program ast)
      (default_cross Flow.default_options)
  done

(* ---- pipeline specs as cache keys ---- *)

module P = Hls_transform.Passes

let pipeline spec =
  match P.pipeline_of_string spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "pipeline %S: %s" spec e

let popts spec = { Flow.default_options with Flow.passes = pipeline spec }

let test_pipeline_roundtrip () =
  List.iter
    (fun s ->
      let p = pipeline s in
      let c = P.pipeline_to_string p in
      match P.pipeline_of_string c with
      | Error e -> Alcotest.failf "canonical %S of %S: %s" c s e
      | Ok p' ->
          Alcotest.(check bool)
            (Printf.sprintf "%S -> %S round-trips" s c)
            true (p = p'))
    [
      "none"; "standard"; "aggressive"; "extract"; "standard+facts";
      "none+extract:latency"; "aggressive+extract:area"; "forward,cse,dce";
      "const-fold"; "rule:mul-const-chain"; "rules:strength,dce";
    ]

let test_pipeline_canonical_names () =
  let canon s = P.pipeline_to_string (pipeline s) in
  Alcotest.(check string) "named spec prints as its name" "standard" (canon "standard");
  Alcotest.(check string) "spelled-out standard canonicalizes" "standard"
    (canon "forward,const-fold,cse,strength,dce");
  Alcotest.(check string) "modifier survives canonicalization" "standard+extract:latency"
    (canon "standard+extract:latency")

let test_pipeline_rejects_garbage () =
  List.iter
    (fun s ->
      match P.pipeline_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "bogus"; "cse,bogus"; "standard+nope"; "standard+extract:speed" ]

let test_pipeline_memo_sensitivity () =
  (* same source, different --passes: never the same cache entry *)
  let engine = Dse.create Workloads.sqrt_newton in
  let d_none = eval_ok engine (popts "none") in
  let d_std = eval_ok engine (popts "standard") in
  let s = Dse.stats engine in
  Alcotest.(check int) "distinct pipelines miss separately" 2 s.Dse.midend.Dse.misses;
  Alcotest.(check bool) "designs differ" true (signature d_none <> signature d_std);
  (* the same spec spelled differently is the same key *)
  let d_std2 = eval_ok engine (popts "forward,const-fold,cse,strength,dce") in
  let s2 = Dse.stats engine in
  Alcotest.(check int) "equal spec shares the entry" 2 s2.Dse.midend.Dse.misses;
  Alcotest.(check bool) "same design back" true (signature d_std = signature d_std2)

let test_pipeline_disk_sensitivity () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlsc_dse_pipe_%d" (Unix.getpid ()))
  in
  let config = { Dse.default_config with Dse.cache_dir = Some dir } in
  let e = Dse.create ~config Workloads.gcd in
  ignore (eval_ok e (popts "none"));
  ignore (eval_ok e (popts "extract"));
  Alcotest.(check int) "two pipelines, two disk entries" 2
    (List.length (Disk_cache.entries ~dir))

(* ---- pruned sweeps ---- *)

let psig (p : Explore.point) = (p.Explore.label, signature p.Explore.design)

let check_pruned_matches ?schedulers ?iterates src =
  let all = Explore.sweep ?schedulers ?iterates src in
  let pr = Explore.sweep_pruned ?schedulers ?iterates src in
  Alcotest.(check int) "evaluated + pruned = total" (List.length all)
    (List.length pr.Explore.evaluated + List.length pr.Explore.pruned);
  Alcotest.(check bool) "frontier identical to the exhaustive sweep" true
    (List.map psig (Explore.pareto all)
    = List.map psig (Explore.pareto pr.Explore.evaluated))

let test_pruned_matches_exhaustive () =
  List.iter check_pruned_matches
    [ Workloads.diffeq; Workloads.sqrt_newton; Workloads.gcd ];
  (* a reduced scheduler matrix takes a different promotion path *)
  check_pruned_matches ~schedulers:[ Flow.Asap; Flow.Freedom; Flow.Trans_serial ]
    Workloads.fir8;
  (* refined points ride the schedule-free bounds: the frontier must
     still be exact when one-shot and iterated points compete *)
  check_pruned_matches
    ~schedulers:[ Flow.Asap; Flow.Freedom; Flow.Trans_serial ]
    ~iterates:[ 0; 2 ] Workloads.diffeq

let test_pruned_counters () =
  Hls_obs.Trace.reset ();
  let pr = Explore.sweep_pruned Workloads.diffeq in
  let ev = Hls_obs.Trace.counter "dse/points_evaluated" in
  let pd = Hls_obs.Trace.counter "dse/pruned_points" in
  Alcotest.(check int) "evaluated counter" (List.length pr.Explore.evaluated) ev;
  Alcotest.(check int) "pruned counter" (List.length pr.Explore.pruned) pd;
  Alcotest.(check int) "counters partition the sweep" 40 (ev + pd);
  Alcotest.(check bool) "something was pruned" true (pd > 0);
  Alcotest.(check bool) "at most half promoted through the backend" true (2 * ev <= 40);
  Alcotest.(check bool) "took more than one round" true (pr.Explore.rounds > 1)

let test_bounds_sound () =
  (* the frontier-identity argument rests on Bound.compute never
     exceeding the true estimate; check it on every workload. The
     exhaustive schedulers (branch-and-bound, 0/1-programming) blow up
     on the larger specifications, so bound the matrix to the
     polynomial ones — the bounds only read the schedule, not the
     scheduler that produced it. *)
  let schedulers = [ Flow.Asap; Flow.List_path; Flow.Freedom; Flow.Trans_serial ] in
  List.iter
    (fun (name, src) ->
      let engine = Dse.create src in
      (* iterate > 0 points exercise the schedule-free branch of the
         bounds: refinement may ship a different schedule than the one
         ranked, so the bound must hold for the refined estimate too *)
      let points = Explore.sweep ~engine ~schedulers ~iterates:[ 0; 2 ] src in
      List.iter
        (fun (p : Explore.point) ->
          let o, cs = Dse.eval_cheap engine p.Explore.options in
          let area_lb, lat_lb = Explore.Bound.compute p.Explore.options o cs in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: area bound %d <= %d" name p.Explore.label
               area_lb p.Explore.area)
            true (area_lb <= p.Explore.area);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: latency bound %.1f <= %.1f" name
               p.Explore.label lat_lb p.Explore.latency_ns)
            true
            (lat_lb <= p.Explore.latency_ns +. 1e-6))
        points)
    Workloads.all

(* The pruned sweep's decision procedure with one Bound.compute per
   point: rank, decide classes most promising first with a window of
   four verdicts in flight, then settle the survivors. Evaluations run serially at
   promotion and count only once drained, the order in which the
   library's window incorporates them. Also checks that every point's
   bound equals its class representative's. *)
let per_point_pruned name src labelled =
  let engine = Dse.create src in
  let items = Array.of_list labelled in
  let n = Array.length items in
  let cheap = Array.map (fun (_, o) -> Dse.eval_class engine o) items in
  let lbs =
    Array.mapi (fun i (_, o) -> let opt, cs, _ = cheap.(i) in Explore.Bound.compute o opt cs) items
  in
  let keys = Array.map (fun (_, _, key) -> key) cheap in
  let rep = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    Hashtbl.replace rep keys.(i) i
  done;
  Array.iteri
    (fun i lb ->
      let r = Hashtbl.find rep keys.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: bound equals that of %s" name (fst items.(i)) (fst items.(r)))
        true (lb = lbs.(r)))
    lbs;
  let dominates (qa, ql) (pa, pl) = (qa <= pa && ql < pl) || (qa < pa && ql <= pl) in
  let status = Array.make n `Pending in
  let class_value = Hashtbl.create 16 in
  let reals = ref [] in
  let dominated v = List.exists (fun q -> dominates q v) !reals in
  let settle i =
    match Dse.eval_result engine (snd items.(i)) with
    | Error _ -> Alcotest.failf "%s %s: backend failed" name (fst items.(i))
    | Ok d ->
        let e = d.Flow.estimate in
        let v = (e.Hls_rtl.Estimate.total_area, e.Hls_rtl.Estimate.latency_ns) in
        status.(i) <- `Evaluated;
        Hashtbl.replace class_value keys.(i) v;
        reals := v :: !reals
  in
  let score i = float_of_int (fst lbs.(i)) *. max 1.0 (snd lbs.(i)) in
  let order =
    Hashtbl.fold (fun _ i acc -> i :: acc) rep []
    |> List.sort (fun i j -> compare (score i, i) (score j, j))
  in
  let window = Queue.create () and rounds = ref 0 in
  let drain () =
    incr rounds;
    settle (Queue.pop window)
  in
  List.iter
    (fun r ->
      let members = ref [] in
      for i = n - 1 downto 0 do
        if keys.(i) = keys.(r) && status.(i) = `Pending then
          if dominated lbs.(i) then status.(i) <- `Pruned else members := i :: !members
      done;
      match !members with
      | [] -> ()
      | i :: _ ->
          if Queue.length window >= 4 then drain ();
          Queue.push i window)
    order;
  while not (Queue.is_empty window) do
    drain ()
  done;
  let survivors = ref [] in
  for i = n - 1 downto 0 do
    if status.(i) = `Pending then
      if dominated (Hashtbl.find class_value keys.(i)) then status.(i) <- `Pruned
      else survivors := i :: !survivors
  done;
  List.iter settle !survivors;
  let pick st = List.filter (fun i -> status.(i) = st) (List.init n Fun.id) in
  ( List.map (fun i -> fst items.(i)) (pick `Evaluated),
    List.map (fun i -> (fst items.(i), lbs.(i))) (pick `Pruned),
    !rounds )

let test_bounds_per_class () =
  (* the default sweep on every workload but biquad3, whose flat block
     is past what branch-and-bound and 0/1 programming finish on; it
     gets the polynomial schedulers. A one-shot plus iterated diffeq
     sweep covers the refinement part of the class key. *)
  let polynomial = [ Flow.Asap; Flow.List_path; Flow.Freedom; Flow.Trans_serial ] in
  let cases =
    List.map
      (fun (name, src) ->
        (name, src, (if name = "biquad3" then polynomial else Explore.default_schedulers), [ 0 ]))
      Workloads.all
    @ [ ("diffeq iterated", Workloads.diffeq, polynomial, [ 0; 2 ]) ]
  in
  List.iter
    (fun (name, src, schedulers, iterates) ->
      let labelled =
        Explore.cross ~iterates ~base:Flow.default_options ~schedulers
          ~limits:Explore.default_limits ()
      in
      let evaluated, pruned, rounds = per_point_pruned name src labelled in
      let before = Hls_obs.Trace.counter "dse/pruned_points" in
      let pr = Explore.sweep_pruned ~schedulers ~iterates src in
      let pruned_points = Hls_obs.Trace.counter "dse/pruned_points" - before in
      Alcotest.(check (list string)) (name ^ ": evaluated labels") evaluated
        (List.map (fun (p : Explore.point) -> p.Explore.label) pr.Explore.evaluated);
      Alcotest.(check (list (pair string (pair int (float 0.0)))))
        (name ^ ": pruned labels and bounds") pruned
        (List.map
           (fun (p : Explore.pruned_point) ->
             (p.Explore.pr_label, (p.Explore.pr_area_lb, p.Explore.pr_latency_lb)))
           pr.Explore.pruned);
      Alcotest.(check int) (name ^ ": rounds") rounds pr.Explore.rounds;
      Alcotest.(check int) (name ^ ": dse/pruned_points") (List.length pruned) pruned_points)
    cases

(* ---- feedback refinement ---- *)

let refine_schedulers = [ Flow.Asap; Flow.List_path; Flow.Freedom; Flow.Trans_serial ]

let test_refine_never_worse_and_terminates () =
  (* the acceptance loop only keeps strict Pareto improvements, so the
     refined design can never be worse than its one-shot seed on either
     coordinate; and on every workload x scheduler the loop must reach
     a fixpoint before a generous bound (termination is not just the
     bound firing). A loop that accepted nothing must hand back the
     seed itself, not a rebuilt copy. *)
  List.iter
    (fun (name, src) ->
      let engine = Dse.create src in
      List.iter
        (fun s ->
          let opts = { Flow.default_options with Flow.scheduler = s } in
          let o, _ = Dse.eval_cheap engine opts in
          match Flow.backend_result opts o with
          | Error _ -> ()
          | Ok seed ->
              let tag = Printf.sprintf "%s/%s" name (Flow.scheduler_to_string s) in
              let d, iters =
                Flow.refine_design { opts with Flow.iterate = 4 } o seed
              in
              Alcotest.(check bool) (tag ^ ": converged before the bound") true
                (iters < 4);
              Alcotest.(check bool) (tag ^ ": area never worse") true
                (d.Flow.estimate.Hls_rtl.Estimate.total_area
                <= seed.Flow.estimate.Hls_rtl.Estimate.total_area);
              Alcotest.(check bool) (tag ^ ": latency never worse") true
                (d.Flow.estimate.Hls_rtl.Estimate.latency_ns
                <= seed.Flow.estimate.Hls_rtl.Estimate.latency_ns +. 1e-6);
              if iters = 0 then
                Alcotest.(check bool)
                  (tag ^ ": no-acceptance fixpoint is the seed itself")
                  true (d == seed)
              else begin
                (* re-refining from the refined design's options makes
                   no further progress through the engine either: the
                   iterated point is a fixpoint of one more iteration *)
                let d2, _ = Flow.refine_design { opts with Flow.iterate = 4 } o seed in
                Alcotest.(check string) (tag ^ ": refinement is deterministic")
                  (Dse.design_digest d) (Dse.design_digest d2)
              end)
        refine_schedulers)
    Workloads.all

let refine_counters () =
  List.map
    (fun c -> (c, Hls_obs.Trace.counter ("refine/" ^ c)))
    [ "candidates"; "infeasible"; "duplicates"; "rejected"; "accepted"; "iterations" ]

let test_refine_jobs_deterministic () =
  (* refine/* counters and the final designs must not depend on the job
     count: refinement runs inside the memoized backend stage, and the
     single-flight memo plus decisions-at-await keep every loop run
     identical whether points evaluate serially or on worker domains *)
  let src = Workloads.diffeq in
  let run jobs =
    Hls_obs.Trace.reset ();
    let config = { Dse.default_config with Dse.jobs } in
    let points =
      Explore.sweep
        ~engine:(Dse.create ~config src)
        ~schedulers:refine_schedulers ~iterates:[ 0; 3 ] src
    in
    (List.map (fun (p : Explore.point) -> psig p) points, refine_counters ())
  in
  let sigs1, counters1 = run 1 in
  let sigs4, counters4 = run 4 in
  Alcotest.(check bool) "some refinement work happened" true
    (List.assoc "candidates" counters1 > 0);
  Alcotest.(check bool) "jobs=4 designs = jobs=1 designs" true (sigs1 = sigs4);
  Alcotest.(check (list (pair string int))) "refine/* counters identical" counters1
    counters4

let test_refine_memo_key_sensitivity () =
  (* the refinement layer is keyed on (backend seed, effective limits,
     iterate): one-shot points never touch it, equal bounds share one
     entry, distinct bounds miss separately — and the seed itself is
     computed once for all of them *)
  let engine = Dse.create Workloads.diffeq in
  (* freedom-scheduled diffeq is a seed the loop strictly improves *)
  let opts it =
    { Flow.default_options with Flow.scheduler = Flow.Freedom; Flow.iterate = it }
  in
  let d0 = eval_ok engine (opts 0) in
  let s0 = Dse.stats engine in
  Alcotest.(check int) "one-shot point skips the refine layer" 0
    (s0.Dse.refine.Dse.hits + s0.Dse.refine.Dse.misses);
  let d2 = eval_ok engine (opts 2) in
  let s2 = Dse.stats engine in
  Alcotest.(check int) "first iterated point misses" 1 s2.Dse.refine.Dse.misses;
  Alcotest.(check int) "iterated point reuses the one-shot seed"
    s0.Dse.backend.Dse.misses s2.Dse.backend.Dse.misses;
  let d2' = eval_ok engine (opts 2) in
  let s2' = Dse.stats engine in
  Alcotest.(check int) "equal bound shares the entry" 1 s2'.Dse.refine.Dse.misses;
  Alcotest.(check bool) "hit recorded" true (s2'.Dse.refine.Dse.hits > 0);
  Alcotest.(check bool) "same design back" true (signature d2 = signature d2');
  ignore (eval_ok engine (opts 3));
  let s3 = Dse.stats engine in
  Alcotest.(check int) "a different bound misses separately" 2
    s3.Dse.refine.Dse.misses;
  Alcotest.(check bool) "refinement improved diffeq's one-shot design" true
    (signature d0 <> signature d2)

let test_refine_disk_key_sensitivity () =
  (* --iterate participates in the persistent point key: a one-shot
     entry can never answer for an iterated point or vice versa *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlsc_dse_refine_%d" (Unix.getpid ()))
  in
  let config = { Dse.default_config with Dse.cache_dir = Some dir } in
  let e = Dse.create ~config Workloads.diffeq in
  ignore (eval_ok e { Flow.default_options with Flow.iterate = 0 });
  ignore (eval_ok e { Flow.default_options with Flow.iterate = 2 });
  ignore (eval_ok e { Flow.default_options with Flow.iterate = 3 });
  Alcotest.(check int) "three iterate bounds, three disk entries" 3
    (List.length (Disk_cache.entries ~dir))

(* ---- pareto marking ---- *)

let test_frontier_mask_matches_reference () =
  (* small value ranges force heavy ties and duplicates — the cases
     where a sort-based scan is easy to get wrong *)
  let rng = Random.State.make [| 7 |] in
  let dom (qa, ql) (pa, pl) = (qa <= pa && ql < pl) || (qa < pa && ql <= pl) in
  for _ = 1 to 100 do
    let n = 1 + Random.State.int rng 60 in
    let pts =
      List.init n (fun _ ->
          (Random.State.int rng 8, float_of_int (Random.State.int rng 8)))
    in
    let reference =
      List.map (fun p -> not (List.exists (fun q -> dom q p) pts)) pts
    in
    Alcotest.(check (list bool)) "mask = quadratic reference" reference
      (Explore.frontier_mask pts)
  done;
  Alcotest.(check (list bool)) "empty" [] (Explore.frontier_mask [])

let test_table_marks_structural_copies () =
  let src = Workloads.sqrt_newton in
  let points = Explore.sweep ~schedulers:[ Flow.List_path ] src in
  (* rebuild every point record so no row is physically equal to any
     frontier member — the marking must still appear *)
  let copies = List.map (fun (p : Explore.point) -> { p with Explore.label = p.Explore.label }) points in
  let stars s = List.length (String.split_on_char '*' s) - 1 in
  let marked = stars (Explore.table points) in
  Alcotest.(check bool) "some rows are on the frontier" true (marked > 0);
  Alcotest.(check int) "copied records marked identically" marked
    (stars (Explore.table copies))

let () =
  Alcotest.run "dse"
    [
      ( "pool",
        [
          Alcotest.test_case "map order (4 domains)" `Quick test_pool_map_order;
          Alcotest.test_case "inline and empty" `Quick test_pool_inline;
          Alcotest.test_case "more workers than work" `Quick test_pool_more_jobs_than_work;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "shutdown" `Quick test_pool_submit_after_shutdown;
          Alcotest.test_case "lazy spawn: one chunk stays inline" `Quick
            test_pool_lazy_no_spawn;
          Alcotest.test_case "explicit pool: chunked path" `Quick
            test_pool_explicit_chunked;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sweep deterministic across jobs" `Quick test_sweep_deterministic;
          Alcotest.test_case "points keep their options" `Quick test_point_keeps_own_options;
          Alcotest.test_case "cache accounting" `Quick test_cache_accounting;
          Alcotest.test_case "shared controllers: workloads x encodings x narrow" `Slow
            test_shared_controllers_workloads;
          Alcotest.test_case "shared controllers: random programs" `Slow
            test_shared_controllers_random;
          Alcotest.test_case "cross labels name varying axes" `Quick test_cross_labels;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "spec round-trip" `Quick test_pipeline_roundtrip;
          Alcotest.test_case "canonical names" `Quick test_pipeline_canonical_names;
          Alcotest.test_case "rejects garbage" `Quick test_pipeline_rejects_garbage;
          Alcotest.test_case "memo key sensitivity" `Quick test_pipeline_memo_sensitivity;
          Alcotest.test_case "disk key sensitivity" `Quick test_pipeline_disk_sensitivity;
        ] );
      ( "pruned",
        [
          Alcotest.test_case "frontier identical to exhaustive" `Quick
            test_pruned_matches_exhaustive;
          Alcotest.test_case "counters partition the sweep" `Quick
            test_pruned_counters;
          Alcotest.test_case "lower bounds never exceed the estimate" `Slow
            test_bounds_sound;
          Alcotest.test_case "one bound per backend class" `Slow test_bounds_per_class;
        ] );
      ( "refine",
        [
          Alcotest.test_case "never worse, converges, fixpoint identity" `Slow
            test_refine_never_worse_and_terminates;
          Alcotest.test_case "counters and designs independent of jobs" `Quick
            test_refine_jobs_deterministic;
          Alcotest.test_case "memo key sensitivity to --iterate" `Quick
            test_refine_memo_key_sensitivity;
          Alcotest.test_case "disk key sensitivity to --iterate" `Quick
            test_refine_disk_key_sensitivity;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "structural frontier marking" `Quick
            test_table_marks_structural_copies;
          Alcotest.test_case "mask matches quadratic reference" `Quick
            test_frontier_mask_matches_reference;
        ] );
    ]
