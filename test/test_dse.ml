(* DSE engine tests: the fork-join Pool.map (real domains, result ordering,
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

(* ---- Pool.map ---- *)

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

let spare_lanes = Domain.recommended_domain_count () - 1

let test_pool_all_items_run () =
  let ran = Atomic.make 0 in
  Alcotest.check_raises "first exception in input order" (Failure "boom 3") (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x ->
             Atomic.incr ran;
             if x > 0 && x mod 3 = 0 then failwith (Printf.sprintf "boom %d" x) else x)
           (List.init 24 Fun.id)));
  Alcotest.(check int) "every item of the raising map ran" 24 (Atomic.get ran)

let test_pool_short_inline () =
  (* a map of at most 4 items runs on the calling domain, whatever the
     machine *)
  let fallbacks0 = Hls_obs.Trace.counter "pool/serial_fallbacks" in
  let caller = Domain.self () in
  let r = Pool.map ~jobs:8 (fun x -> (Domain.self () = caller, x + 1)) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list (pair bool int)))
    "every item ran on the caller" [ (true, 2); (true, 3); (true, 4); (true, 5) ] r;
  Alcotest.(check bool) "serial fallback counted" true
    (Hls_obs.Trace.counter "pool/serial_fallbacks" > fallbacks0)

(* [Pool.map ~jobs:2] over 24 items. Item 0 waits (up to 2 s) until a
   second item has started, so with a spare core the spawned lane gets
   work before the caller can run every item itself. *)
let check_two_lanes () =
  Hls_obs.Trace.reset ();
  let started = Atomic.make 0 in
  let deadline = Unix.gettimeofday () +. 2.0 in
  let r =
    Pool.map ~jobs:2
      (fun x ->
        Atomic.incr started;
        if x = 0 && spare_lanes > 0 then
          while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
        x * 3)
      (List.init 24 Fun.id)
  in
  Alcotest.(check (list int)) "order preserved" (List.init 24 (fun x -> x * 3)) r;
  let active = Hls_obs.Trace.counter "pool/workers_active" in
  if spare_lanes > 0 then Alcotest.(check int) "two lanes ran items" 2 active
  else begin
    Alcotest.(check int) "one lane: inline fallback" 1 active;
    Alcotest.(check int) "fallback counted" 1 (Hls_obs.Trace.counter "pool/serial_fallbacks")
  end

let test_pool_two_lanes () =
  check_two_lanes ();
  let xs = List.init 24 Fun.id in
  Alcotest.(check (list int)) "map is reusable" xs (Pool.map ~jobs:2 Fun.id xs);
  Alcotest.check_raises "first exception in input order over two lanes"
    (Failure "boom 7") (fun () ->
      ignore
        (Pool.map ~jobs:2
           (fun x -> if x >= 7 then failwith (Printf.sprintf "boom %d" x) else x)
           xs))

let test_pool_shared_budget () =
  (* two callers map at once: the domains spawned for both maps together
     never run more items at once than the machine has spare lanes *)
  let callers = ref [] and go = Atomic.make false in
  let spawned_running = Atomic.make 0 and peak = Atomic.make 0 in
  let rec raise_peak v =
    let p = Atomic.get peak in
    if v > p && not (Atomic.compare_and_set peak p v) then raise_peak v
  in
  let item x =
    let spawned = not (List.mem (Domain.self ()) !callers) in
    if spawned then raise_peak (1 + Atomic.fetch_and_add spawned_running 1);
    let until = Unix.gettimeofday () +. 0.002 in
    while Unix.gettimeofday () < until do
      Domain.cpu_relax ()
    done;
    if spawned then Atomic.decr spawned_running;
    x
  in
  let xs = List.init 40 Fun.id in
  let other =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        Pool.map ~jobs:8 item xs)
  in
  callers := [ Domain.self (); Domain.get_id other ];
  Atomic.set go true;
  let mine = Pool.map ~jobs:8 item xs in
  Alcotest.(check (list int)) "this caller's result" xs mine;
  Alcotest.(check (list int)) "other caller's result" xs (Domain.join other);
  Alcotest.(check bool)
    (Printf.sprintf "spawned lanes at once (%d) within the %d spare" (Atomic.get peak)
       spare_lanes)
    true
    (Atomic.get peak <= spare_lanes);
  (* both maps gave their lanes back *)
  check_two_lanes ()

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
   + total s3.Dse.block + total s3.Dse.backend + total s3.Dse.control)

(* The block layer sits inside schedule misses, one probe per block, and
   shares blocks whose binding limits coincide: under 3 and 4 general
   units every diffeq block of at most 3 operations schedules once. *)
let test_block_layer () =
  let src = Workloads.diffeq in
  let engine = Dse.create src in
  ignore (Explore.sweep ~engine src);
  let s = Dse.stats engine in
  let o, _ = Dse.eval_cheap engine Flow.default_options in
  let blocks = Hls_cdfg.Cfg.n_blocks o.Flow.o_cfg in
  Alcotest.(check int) "one probe per block of every schedule miss"
    (blocks * s.Dse.schedule.Dse.misses)
    (s.Dse.block.Dse.hits + s.Dse.block.Dse.misses);
  Alcotest.(check bool) "blocks shared across limits" true (s.Dse.block.Dse.hits > 0)

(* Each analysis runs once per thing it depends on: one storage table
   per backend run, one liveness analysis per midend result. *)
let test_storage_analyses_once () =
  let src = Workloads.diffeq in
  let o =
    Flow.midend ~passes:Flow.default_options.Flow.passes ~if_conversion:false
      (Flow.frontend src)
  in
  let sched = Flow.schedule Flow.default_options o in
  let tables = Hls_alloc.Lifetime.tables_built () in
  (match Flow.complete_result Flow.default_options o ~sched with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "diffeq does not complete");
  Alcotest.(check int) "one table per backend run" 1
    (Hls_alloc.Lifetime.tables_built () - tables);
  let runs = Hls_alloc.Cfg_facts.liveness_runs () in
  let engine = Dse.create src in
  ignore (Explore.sweep_pruned ~engine src);
  let s = Dse.stats engine in
  Alcotest.(check int) "one midend result" 1 s.Dse.midend.Dse.misses;
  Alcotest.(check int) "liveness once per midend result" s.Dse.midend.Dse.misses
    (Hls_alloc.Cfg_facts.liveness_runs () - runs)

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

(* Steps are 1-based: the width-aware FU floor must scan the block's
   last step. Here the one 8-bit add runs in step 1 and the two 32-bit
   adds share step 2, so the ALU floor is two 32-bit adders. *)
let test_bound_scans_last_step () =
  let src =
    {|
module m(input a, b: int<8>; input c, d, e, f: int<32>;
         output y: int<8>; output z, w: int<32>);
begin
  y := a + b;
  z := c + d;
  w := e + f;
end
|}
  in
  let o =
    Flow.midend ~passes:Hls_transform.Passes.default_pipeline ~if_conversion:false
      (Flow.frontend src)
  in
  let cfg = o.Flow.o_cfg in
  let cs =
    Hls_sched.Cfg_sched.init cfg (fun bid ->
        let g = Hls_cdfg.Cfg.dfg cfg bid in
        Hls_sched.Schedule.make g ~steps:(fun nid ->
            if Hls_cdfg.Op.bits_of (Hls_cdfg.Dfg.ty g nid) = 8 then 1 else 2))
  in
  Alcotest.(check (list (pair string int)))
    "two 32-bit adders"
    [ ("alu", 2 * Hls_rtl.Component.min_area Hls_cdfg.Op.C_alu ~width:32) ]
    (List.map
       (fun (c, a) -> (Hls_cdfg.Op.fu_class_to_string c, a))
       (Explore.Bound.class_floors o cs))

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
          Alcotest.test_case "every item of a raising map runs" `Quick
            test_pool_all_items_run;
          Alcotest.test_case "short map stays inline" `Quick test_pool_short_inline;
          (* jobs = 2 over 24 items: two lanes, order, reuse, first exception *)
          Alcotest.test_case "explicit pool: chunked path" `Quick test_pool_two_lanes;
          Alcotest.test_case "concurrent maps share the lane budget" `Quick
            test_pool_shared_budget;
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
          Alcotest.test_case "block layer" `Quick test_block_layer;
          Alcotest.test_case "storage analyses run once" `Quick test_storage_analyses_once;
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
          Alcotest.test_case "FU floor scans the last step" `Quick test_bound_scans_last_step;
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
