(* Observability subsystem: the Hls_obs.Trace sink (counters, duration
   accumulators, span ring with parent links), the duration report,
   the Chrome trace_event export and its shape checker, and the two
   contracts the tracing design rests on: a full synthesis covers all
   seven pipeline stages, and counter totals outside pool/ are
   identical whether a sweep runs on one domain or four. *)

open Hls_core
module Trace = Hls_obs.Trace
module J = Hls_util.Json

let fresh () =
  Trace.reset ();
  Trace.disable ()

(* ---- counters ---- *)

let test_counters () =
  fresh ();
  Alcotest.(check int) "untouched counter is 0" 0 (Trace.counter "t/x");
  Trace.incr "t/x";
  Trace.incr "t/x";
  Trace.add "t/x" 3;
  Alcotest.(check int) "incr/add accumulate" 5 (Trace.counter "t/x");
  Trace.record_max "t/peak" 4;
  Trace.record_max "t/peak" 2;
  Trace.record_max "t/peak" 7;
  Alcotest.(check int) "record_max keeps the max" 7 (Trace.counter "t/peak");
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("t/peak", 7); ("t/x", 5) ]
    (Trace.counters ());
  Trace.reset ();
  Alcotest.(check int) "reset clears counters" 0 (Trace.counter "t/x")

(* ---- spans ---- *)

let test_spans_nesting () =
  fresh ();
  Trace.enable ();
  Alcotest.(check bool) "no open span outside with_span" true
    (Trace.current_parent () = None);
  let v =
    Trace.with_span "outer" (fun () ->
        Alcotest.(check bool) "parent tracked" true
          (Trace.current_parent () = Some "outer");
        Trace.with_span ~args:[ ("k", "v") ] "inner" (fun () -> ());
        42)
  in
  Alcotest.(check int) "with_span returns the thunk's value" 42 v;
  match Trace.spans () with
  | [ inner; outer ] ->
      (* completion order: inner finishes first *)
      Alcotest.(check string) "inner name" "inner" inner.Trace.sp_name;
      Alcotest.(check bool) "inner parent is outer" true
        (inner.Trace.sp_parent = Some "outer");
      Alcotest.(check (list (pair string string)))
        "span args retained" [ ("k", "v") ] inner.Trace.sp_args;
      Alcotest.(check bool) "outer has no parent" true (outer.Trace.sp_parent = None);
      Alcotest.(check bool) "durations non-negative" true
        (inner.Trace.sp_dur >= 0.0 && outer.Trace.sp_dur >= 0.0)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_ring_overflow () =
  fresh ();
  Trace.enable ~capacity:4 ();
  for i = 1 to 10 do
    Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  let names = List.map (fun s -> s.Trace.sp_name) (Trace.spans ()) in
  Alcotest.(check (list string)) "ring keeps the newest, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ] names;
  Alcotest.(check int) "dropped counts the overwritten" 6 (Trace.dropped ())

let test_disabled_spans_still_time () =
  fresh ();
  Trace.with_span "quiet" (fun () -> ());
  Alcotest.(check int) "no span captured while disabled" 0
    (List.length (Trace.spans ()));
  Alcotest.(check bool) "duration accumulated anyway" true
    (List.exists (fun (stage, _, calls) -> stage = "quiet" && calls = 1)
       (Trace.durations_snapshot ()))

(* ---- stage durations ---- *)

let test_durations () =
  fresh ();
  Trace.record_duration "alpha" 0.25;
  Trace.record_duration "alpha" 0.25;
  ignore (Trace.with_span "beta" (fun () -> 7));
  let snap = Trace.durations_snapshot () in
  let entry stage = List.find (fun (s, _, _) -> s = stage) snap in
  let _, seconds, calls = entry "alpha" in
  Alcotest.(check int) "two recorded calls" 2 calls;
  Alcotest.(check (float 1e-9)) "seconds accumulate" 0.5 seconds;
  let _, _, calls = entry "beta" in
  Alcotest.(check int) "a span records one call" 1 calls;
  Alcotest.(check string) "report line" "alpha       500.000 ms  (2 calls)\n"
    (Format.asprintf "%a" Metrics.pp_durations [ entry "alpha" ]);
  Trace.incr "durations/kept";
  Trace.reset_durations ();
  Alcotest.(check int) "reset clears the durations" 0
    (List.length (Trace.durations_snapshot ()));
  Alcotest.(check int) "and keeps the counters" 1 (Trace.counter "durations/kept")

(* ---- Chrome export ---- *)

let test_chrome_trace_shape () =
  fresh ();
  Trace.enable ();
  (match Flow.synthesize_result Workloads.diffeq with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "diffeq failed to synthesize");
  let json = Metrics.chrome_trace () in
  (* round-trip through the writer and parser, as `hlsc trace` +
     `--validate` do *)
  let reparsed =
    match J.parse (J.to_string json) with
    | Ok j -> j
    | Error e -> Alcotest.failf "emitted trace does not reparse: %s" e
  in
  (match Metrics.validate_chrome reparsed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid Chrome trace: %s" e);
  Alcotest.(check (list string))
    "one synthesis covers all seven pipeline stages" Metrics.pipeline_stages
    (Metrics.covered_stages reparsed);
  match J.member "traceEvents" reparsed with
  | Some (J.Arr events) ->
      let phase ev = J.member "ph" ev in
      Alcotest.(check bool) "counter events are emitted" true
        (List.exists (fun ev -> phase ev = Some (J.Str "C")) events)
  | _ -> Alcotest.fail "traceEvents missing after reparse"

let test_validate_rejects () =
  let bad = J.Obj [ ("traceEvents", J.Arr []) ] in
  Alcotest.(check bool) "empty traceEvents rejected" true
    (Result.is_error (Metrics.validate_chrome bad));
  let bogus_phase =
    J.Obj
      [
        ( "traceEvents",
          J.Arr
            [
              J.Obj
                [
                  ("name", J.Str "x"); ("ph", J.Str "B"); ("ts", J.Num 0.0);
                  ("pid", J.Num 1.0);
                ];
            ] );
      ]
  in
  Alcotest.(check bool) "unexpected phase rejected" true
    (Result.is_error (Metrics.validate_chrome bogus_phase))

(* ---- determinism across worker counts ---- *)

let non_pool_counters () =
  List.filter
    (fun (k, _) -> not (String.length k > 5 && String.sub k 0 5 = "pool/"))
    (Trace.counters ())

let span_shape () =
  (* (name, parent) multiset: the span tree shape, ordering and
     domain placement aside *)
  List.sort compare
    (List.map (fun s -> (s.Trace.sp_name, s.Trace.sp_parent)) (Trace.spans ()))

let sweep_with ?(base = Flow.default_options) ~jobs () =
  fresh ();
  Trace.enable ~capacity:65536 ();
  let config = { Dse.default_config with Dse.jobs } in
  let points =
    Explore.sweep ~engine:(Dse.create ~config Workloads.diffeq) ~base Workloads.diffeq
  in
  (List.length points, non_pool_counters (), span_shape ())

let test_counters_jobs_independent () =
  let n1, c1, t1 = sweep_with ~jobs:1 () in
  let n4, c4, t4 = sweep_with ~jobs:4 () in
  Alcotest.(check int) "same point count" n1 n4;
  Alcotest.(check (list (pair string int)))
    "non-pool counter totals identical across jobs 1 and 4" c1 c4;
  Alcotest.(check bool) "span (name, parent) multiset identical" true (t1 = t4);
  Alcotest.(check bool) "cache layers actually counted" true
    (List.mem_assoc "dse/frontend.misses" c1 && List.assoc "dse/points" c1 = n1)

let test_range_counters_jobs_independent () =
  (* under [narrow] every backend completion runs the range analysis;
     its counters must not depend on domain placement *)
  let base = { Flow.default_options with Flow.narrow = true } in
  let _, c1, _ = sweep_with ~base ~jobs:1 () in
  let _, c4, _ = sweep_with ~base ~jobs:4 () in
  let range cs =
    List.filter (fun (k, _) -> String.length k > 6 && String.sub k 0 6 = "range/") cs
  in
  Alcotest.(check (list (pair string int)))
    "range/* totals identical across jobs 1 and 4" (range c1) (range c4);
  Alcotest.(check bool) "narrowing actually counted" true
    (match List.assoc_opt "range/narrowed_designs" c1 with
    | Some n -> n > 0
    | None -> false)

(* ---- Flow Result API ---- *)

let test_flow_result_api () =
  fresh ();
  let d =
    match Flow.synthesize_result ~verify:true Workloads.diffeq with
    | Ok d -> d
    | Error ds ->
        Alcotest.failf "verified synthesis failed: %s"
          (Hls_analysis.Diagnostic.summary ds)
  in
  (* the raising wrapper is a thin view over the Result API *)
  let d' = Flow.synthesize ~verify:true Workloads.diffeq in
  Alcotest.(check int) "wrapper and Result API agree on area"
    d.Flow.estimate.Hls_rtl.Estimate.total_area
    d'.Flow.estimate.Hls_rtl.Estimate.total_area;
  let tprog = (Flow.frontend Workloads.diffeq).Flow.c_prog in
  match Flow.run Flow.default_options tprog with
  | Ok d'' ->
      Alcotest.(check int) "Flow.run from a typed program matches"
        d.Flow.estimate.Hls_rtl.Estimate.total_area
        d''.Flow.estimate.Hls_rtl.Estimate.total_area
  | Error ds ->
      Alcotest.failf "Flow.run failed: %s" (Hls_analysis.Diagnostic.summary ds)

let () =
  fresh ();
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "span nesting and args" `Quick test_spans_nesting;
          Alcotest.test_case "ring overflow" `Quick test_span_ring_overflow;
          Alcotest.test_case "durations without capture" `Quick
            test_disabled_spans_still_time;
          Alcotest.test_case "durations accumulate and reset" `Quick test_durations;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export shape and stage coverage" `Quick
            test_chrome_trace_shape;
          Alcotest.test_case "validator rejects bad traces" `Quick test_validate_rejects;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "counters independent of worker count" `Quick
            test_counters_jobs_independent;
          Alcotest.test_case "range counters independent of worker count" `Quick
            test_range_counters_jobs_independent;
        ] );
      ( "result-api",
        [ Alcotest.test_case "Flow result/wrapper agreement" `Quick test_flow_result_api ] );
    ]
