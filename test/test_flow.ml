(* End-to-end flow tests: synthesis under a grid of option combinations
   with verification, design-space exploration properties, and report
   contents. *)

open Hls_core
open Hls_sched

(* ---- option grid ---- *)

let schedulers =
  [ Flow.Asap; Flow.List_path; Flow.List_mobility; Flow.Freedom; Flow.Branch_bound;
    Flow.Trans_parallel; Flow.Trans_serial ]

let allocators = [ `Clique; `Greedy_min_mux; `Greedy_first_fit ]

let fast_workloads = [ "sqrt"; "gcd"; "fir8"; "biquad3" ]

let test_scheduler_grid () =
  List.iter
    (fun name ->
      let src = Workloads.find name in
      List.iter
        (fun scheduler ->
          let options = { Flow.default_options with Flow.scheduler } in
          let d = Flow.synthesize ~options src in
          match Flow.verify ~runs:3 d with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s with %s: %s" name (Flow.scheduler_to_string scheduler) e)
        schedulers)
    fast_workloads

let test_allocator_grid () =
  List.iter
    (fun name ->
      let src = Workloads.find name in
      List.iter
        (fun allocator ->
          let options = { Flow.default_options with Flow.allocator } in
          let d = Flow.synthesize ~options src in
          match Flow.verify ~runs:3 d with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" name e)
        allocators)
    fast_workloads

let test_opt_level_grid () =
  List.iter
    (fun name ->
      let src = Workloads.find name in
      List.iter
        (fun spec ->
          let passes =
            match Hls_transform.Passes.pipeline_of_string spec with
            | Ok p -> p
            | Error e -> Alcotest.failf "pipeline %S: %s" spec e
          in
          let options = { Flow.default_options with Flow.passes } in
          let d = Flow.synthesize ~options src in
          match Flow.verify ~runs:3 d with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s under %s: %s" name spec e)
        [ "none"; "standard"; "aggressive"; "extract"; "standard+extract:latency" ])
    fast_workloads

let test_diffeq_full_default () =
  let d = Flow.synthesize Workloads.diffeq in
  match Flow.verify ~runs:3 d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "diffeq: %s" e

let test_if_conversion_option () =
  (* gcd's inner diamond becomes muxes; semantics preserved end to end *)
  let options = { Flow.default_options with Flow.if_conversion = true } in
  let d = Flow.synthesize ~options Workloads.gcd in
  (match Flow.verify ~runs:5 d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "if-converted gcd: %s" e);
  let plain = Flow.synthesize Workloads.gcd in
  Alcotest.(check bool) "fewer FSM states" true
    (Hls_sched.Cfg_sched.total_states d.Flow.sched
    < Hls_sched.Cfg_sched.total_states plain.Flow.sched)

let test_ilp_scheduler_option () =
  let options = { Flow.default_options with Flow.scheduler = Flow.Ilp_exact } in
  List.iter
    (fun name ->
      let d = Flow.synthesize ~options (Workloads.find name) in
      match Flow.verify ~runs:3 d with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s with ILP scheduler: %s" name e)
    [ "sqrt"; "gcd"; "twophase" ]

(* biquad3's one flat block of 24 ops under the serial limit: the list
   schedule already takes one step per op, the lower bound, so
   branch-and-bound returns it without searching. Before the bound exit
   this call ran for minutes. *)
let test_bb_serial_biquad3 () =
  let at scheduler =
    Flow.synthesize
      ~options:{ Flow.default_options with Flow.scheduler; limits = Limits.Serial }
      Workloads.biquad3
  in
  let nodes0 = Hls_obs.Trace.counter "bb/nodes" in
  let bb = at Flow.Branch_bound in
  Alcotest.(check int) "no search node" nodes0 (Hls_obs.Trace.counter "bb/nodes");
  let list = at Flow.List_path in
  Alcotest.(check int) "24 steps" 24 (Cfg_sched.compute_steps bb.Flow.sched);
  Alcotest.(check string) "the list schedule" (Cfg_sched.digest list.Flow.sched)
    (Cfg_sched.digest bb.Flow.sched)

let test_invalid_source_reported () =
  Alcotest.(check bool) "frontend error" true
    (try
       ignore (Flow.synthesize "module m(; begin end");
       false
     with Hls_lang.Ast.Frontend_error _ -> true)

(* ---- optimization reduces or keeps cost ---- *)

let test_optimization_improves_sqrt () =
  let pipeline name = List.assoc name Hls_transform.Passes.named_pipelines in
  let with_pipeline name =
    Flow.synthesize
      ~options:{ Flow.default_options with Flow.passes = pipeline name }
      Workloads.sqrt_newton
  in
  let none = with_pipeline "none" in
  let std = with_pipeline "standard" in
  Alcotest.(check bool) "standard not slower" true
    (std.Flow.estimate.Hls_rtl.Estimate.compute_steps
    <= none.Flow.estimate.Hls_rtl.Estimate.compute_steps);
  (* the paper's headline: 23 serial unoptimized, 10 on two FUs optimized *)
  let serial_none =
    Flow.synthesize
      ~options:
        {
          Flow.default_options with
          Flow.passes = pipeline "none";
          Flow.limits = Limits.Serial;
        }
      Workloads.sqrt_newton
  in
  Alcotest.(check int) "serial unoptimized = 23" 23
    serial_none.Flow.estimate.Hls_rtl.Estimate.compute_steps;
  Alcotest.(check int) "two FUs standard = 10" 10
    std.Flow.estimate.Hls_rtl.Estimate.compute_steps

(* ---- explore ---- *)

let test_explore_pareto () =
  let points = Explore.sweep ~schedulers:[ Flow.List_path ] Workloads.sqrt_newton in
  let front = Explore.pareto points in
  Alcotest.(check bool) "front non-empty" true (front <> []);
  (* no front point dominated by any other point *)
  List.iter
    (fun (p : Explore.point) ->
      List.iter
        (fun (q : Explore.point) ->
          Alcotest.(check bool) "not dominated" false
            (q.Explore.area <= p.Explore.area
            && q.Explore.latency_ns < p.Explore.latency_ns
            || (q.Explore.area < p.Explore.area
               && q.Explore.latency_ns <= p.Explore.latency_ns)))
        points)
    front;
  (* serial design is the slowest *)
  let serial = List.find (fun (p : Explore.point) -> p.Explore.label = "serial") points in
  List.iter
    (fun (p : Explore.point) ->
      Alcotest.(check bool) "serial slowest" true
        (p.Explore.latency_ns <= serial.Explore.latency_ns))
    points

let test_explore_table_renders () =
  let points = Explore.sweep ~schedulers:[ Flow.List_path ] Workloads.gcd in
  let table = Explore.table points in
  Alcotest.(check bool) "has rows" true
    (List.length (String.split_on_char '\n' table) > List.length points)

(* ---- report ---- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_report_sections () =
  let d = Flow.synthesize Workloads.sqrt_newton in
  let r = Report.summary d in
  List.iter
    (fun s -> Alcotest.(check bool) s true (contains r s))
    [
      "synthesis report";
      "-- schedule --";
      "-- functional units --";
      "-- registers --";
      "-- interconnect --";
      "-- controller --";
      "-- estimate --";
    ]

let () =
  Alcotest.run "flow"
    [
      ( "grids",
        [
          Alcotest.test_case "schedulers" `Slow test_scheduler_grid;
          Alcotest.test_case "allocators" `Slow test_allocator_grid;
          Alcotest.test_case "optimization levels" `Slow test_opt_level_grid;
          Alcotest.test_case "diffeq default" `Quick test_diffeq_full_default;
          Alcotest.test_case "if-conversion option" `Quick test_if_conversion_option;
          Alcotest.test_case "ILP scheduler option" `Quick test_ilp_scheduler_option;
          Alcotest.test_case "B&B serial biquad3 stops at the bound" `Quick
            test_bb_serial_biquad3;
          Alcotest.test_case "frontend errors surface" `Quick test_invalid_source_reported;
        ] );
      ( "quality",
        [ Alcotest.test_case "optimization improves sqrt" `Quick test_optimization_improves_sqrt ] );
      ( "explore",
        [
          Alcotest.test_case "pareto" `Quick test_explore_pareto;
          Alcotest.test_case "table" `Quick test_explore_table_renders;
        ] );
      ("report", [ Alcotest.test_case "sections" `Quick test_report_sections ]);
    ]
