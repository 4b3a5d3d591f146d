(* DSE engine section: the default scheduler × limits sweep (8 × 5 = 40
   points) over the paper's differential-equation workload, run four
   ways with fresh engines each iteration:

     serial  — memoization off, calling domain only (every point pays
               the full flow; equivalent to the pre-engine sweep loop)
     memo/1  — layered cache on, calling domain only
     memo/N  — layered cache on, N worker domains requested
     pruned  — layered cache on, successive-halving sweep: only
               promising backend classes are promoted

   Gates: the first three modes produce identical designs at every
   point, the memo/N engine synthesizes no more controllers than it
   runs backends (the control layer shares one per distinct FSM), the
   pruned sweep's Pareto frontier is identical to the
   exhaustive one, it promotes at most half the points, and its dse/
   counters were recorded. On a host with spare cores (host_cores >= 2)
   a serial fallback fails, and so does a memo/N sweep slower than the
   non-memoized serial one (paired median speedup below 1.0). memo/N
   losing to memo/1 only prints a warning. On a single-core host both
   sweeps run the same serial code, so the two parallel gates are not
   evaluated. *)

open Hls_core
open Hls_util.Json

let src = Workloads.diffeq

let signature (d : Flow.design) =
  ( d.Flow.estimate.Hls_rtl.Estimate.total_area,
    d.Flow.estimate.Hls_rtl.Estimate.latency_ns,
    d.Flow.estimate.Hls_rtl.Estimate.cycle_ns,
    d.Flow.estimate.Hls_rtl.Estimate.compute_steps,
    Hls_alloc.Fu_alloc.n_units d.Flow.fu,
    Hls_alloc.Reg_alloc.n_registers d.Flow.regs,
    List.length d.Flow.transfers,
    Hls_sched.Cfg_sched.digest d.Flow.sched )

let stage_obj entries =
  Obj (List.map (fun (e : Timing.entry) -> (e.Timing.stage, Num (1e3 *. e.Timing.seconds))) entries)

let layer_obj (l : Dse.layer) = Obj [ ("hits", of_int l.Dse.hits); ("misses", of_int l.Dse.misses) ]

let engine ~memoize ~jobs = Dse.create ~config:{ Dse.default_config with Dse.jobs; memoize } src

let run get =
  let iters = get "iters" and jobs = get "jobs" in
  let sweep ~memoize ~jobs () = Explore.sweep ~engine:(engine ~memoize ~jobs) src in
  (* warm the code paths and allocator before anything is timed *)
  if iters > 1 then ignore (sweep ~memoize:false ~jobs:1 ());
  let serial_ms = ref [] and memo1_ms = ref [] and memon_ms = ref [] and pruned_ms = ref [] in
  let stages_serial = ref [] and stages_memo = ref [] and cache = ref None in
  let identical = ref true and frontier_identical = ref true in
  let points = ref 0 and promoted = ref 0 and pruned_points = ref 0 in
  let workers_used = ref 0 and serial_fallback = ref false in
  for _ = 1 to iters do
    Timing.reset ();
    let ps, t_serial = Harness.time_ms (sweep ~memoize:false ~jobs:1) in
    stages_serial := Timing.snapshot ();
    let p1, t_memo1 = Harness.time_ms (sweep ~memoize:true ~jobs:1) in
    (* full trace reset (durations and counters) so the report's
       counters cover exactly the last memo/N and pruned sweeps *)
    Hls_obs.Trace.reset ();
    let e = engine ~memoize:true ~jobs in
    let pn, t_memon = Harness.time_ms (fun () -> Explore.sweep ~engine:e src) in
    stages_memo := Timing.snapshot ();
    cache := Some (Dse.stats e);
    (* true parallelism: workers that participated in the memo/N sweep,
       not the requested count — the pool's per-map watermark reports
       1 when it fell back to the calling domain *)
    workers_used :=
      max !workers_used (if jobs <= 1 then 1 else Hls_obs.Trace.counter "pool/workers_active");
    if jobs > 1 && Hls_obs.Trace.counter "pool/serial_fallbacks" > 0 then serial_fallback := true;
    (* pruned sweep on a fresh engine: pays its own frontend/midend/
       schedule, but promotes only surviving backend classes *)
    let pr, t_pruned =
      Harness.time_ms (fun () -> Explore.sweep_pruned ~engine:(engine ~memoize:true ~jobs) src)
    in
    promoted := List.length pr.Explore.evaluated;
    pruned_points := List.length pr.Explore.pruned;
    points := List.length ps;
    let sg l = List.map (fun p -> signature p.Explore.design) l in
    if not (sg ps = sg p1 && sg p1 = sg pn) then identical := false;
    if sg (Explore.pareto ps) <> sg (Explore.pareto pr.Explore.evaluated) then
      frontier_identical := false;
    serial_ms := t_serial :: !serial_ms;
    memo1_ms := t_memo1 :: !memo1_ms;
    memon_ms := t_memon :: !memon_ms;
    pruned_ms := t_pruned :: !pruned_ms
  done;
  let speedup_memo1 = Harness.paired_ratio !serial_ms !memo1_ms in
  let speedup_memon = Harness.paired_ratio !serial_ms !memon_ms in
  let parallel_speedup = Harness.paired_ratio !memo1_ms !memon_ms in
  let no_parallel_speedup = jobs > 1 && parallel_speedup <= 1.0 in
  if no_parallel_speedup && not !serial_fallback then
    Printf.eprintf
      "warning: jobs=%d produced no parallel speedup over memo/1 (%.2fx, %d worker(s) active)\n"
      jobs parallel_speedup !workers_used;
  let cache_stats = Option.get !cache in
  let promoted_fraction =
    float_of_int !promoted /. float_of_int (max 1 (!promoted + !pruned_points))
  in
  Printf.printf
    "%d points, serial %.1f ms, memo/1 %.1f ms (%.2fx), memo/%d %.1f ms (%.2fx%s), pruned %.1f ms (%d/%d promoted)\n"
    !points (Harness.median !serial_ms) (Harness.median !memo1_ms) speedup_memo1 jobs
    (Harness.median !memon_ms) speedup_memon
    (if !serial_fallback then ", serial fallback" else "")
    (Harness.median !pruned_ms) !promoted (!promoted + !pruned_points);
  {
    Harness.body =
      [ ("workload", Str "diffeq");
        ("points", of_int !points);
        ("workers_used", of_int !workers_used);
        ("no_parallel_speedup", Bool no_parallel_speedup);
        ("serial_fallback", Bool !serial_fallback);
        ("promoted_points", of_int !promoted);
        ("pruned_points", of_int !pruned_points);
        ("promoted_fraction", Num promoted_fraction);
        ("serial_ms", Harness.runs_json !serial_ms);
        ("memo_jobs1_ms", Harness.runs_json !memo1_ms);
        ("memo_jobsN_ms", Harness.runs_json !memon_ms);
        ("pruned_ms", Harness.runs_json !pruned_ms);
        ("speedup_memo_jobs1", Num speedup_memo1);
        ("speedup_memo_jobsN", Num speedup_memon);
        ("speedup_pruned_vs_memo1", Num (Harness.paired_ratio !memo1_ms !pruned_ms));
        ( "cache",
          Obj
            [ ("frontend", layer_obj cache_stats.Dse.frontend);
              ("midend", layer_obj cache_stats.Dse.midend);
              ("schedule", layer_obj cache_stats.Dse.schedule);
              ("backend", layer_obj cache_stats.Dse.backend);
              ("control", layer_obj cache_stats.Dse.control) ] );
        ("stages_serial_ms", stage_obj !stages_serial);
        ("stages_memo_ms", stage_obj !stages_memo) ];
    gates =
      [ ("points > 0", !points > 0);
        ("identical_designs", !identical);
        ( "control.misses <= backend.misses",
          cache_stats.Dse.control.Dse.misses <= cache_stats.Dse.backend.Dse.misses );
        ("frontier_identical", !frontier_identical);
        ("promoted_fraction <= 0.5", promoted_fraction <= 0.5 +. 1e-9);
        Harness.counters_gate "dse/points_evaluated";
        Harness.counters_gate "dse/pruned_points" ]
      @
      if Harness.host_cores () >= 2 then
        [ ("no serial fallback", not !serial_fallback);
          ("speedup_memo_jobsN >= 1", speedup_memon >= 1.0) ]
      else [];
  }

let section =
  {
    Harness.name = "dse";
    benchmark = "dse_sweep";
    settings = [ ("iters", 5); ("jobs", 4) ];
    deterministic = false;
    run;
  }
