(* Range-analysis section: every workload is synthesized twice, baseline
   and [narrow] (range-inferred register/FU/mux widths); the narrowed
   design is cosimulated against the behavioral reference. Gates: every
   cosim is bit-identical, a narrowed design is never larger than its
   baseline, at least two workloads see a strict area reduction, and
   the range/ counters were recorded. *)

open Hls_core
open Hls_util.Json

type row = {
  name : string;
  base_area : int;
  narrow_area : int;
  cosim_ok : bool;
  base_ms : float;
  narrow_ms : float;
}

let area (d : Flow.design) = d.Flow.estimate.Hls_rtl.Estimate.total_area

let row ~runs (name, src) =
  let base, base_ms = Harness.time_ms (fun () -> Flow.synthesize src) in
  let narrow, narrow_ms =
    Harness.time_ms (fun () ->
        Flow.synthesize ~options:{ Flow.default_options with Flow.narrow = true } src)
  in
  let cosim_ok =
    match Flow.verify ~runs narrow with
    | Ok () -> true
    | Error e ->
        Printf.eprintf "%s: narrowed cosim diverged: %s\n" name e;
        false
  in
  { name; base_area = area base; narrow_area = area narrow; cosim_ok; base_ms; narrow_ms }

let row_json r =
  Obj
    [ ("name", Str r.name);
      ("base_area", of_int r.base_area);
      ("narrow_area", of_int r.narrow_area);
      ("area_delta", of_int (r.base_area - r.narrow_area));
      ("cosim_ok", Bool r.cosim_ok);
      ("base_ms", Num r.base_ms);
      ("narrow_ms", Num r.narrow_ms) ]

let run get =
  let rows = List.map (row ~runs:(get "runs")) Workloads.all in
  let reduced = List.length (List.filter (fun r -> r.narrow_area < r.base_area) rows) in
  List.iter
    (fun r ->
      Printf.printf "  %-10s base %5d  narrow %5d  (-%d)%s\n" r.name r.base_area r.narrow_area
        (r.base_area - r.narrow_area)
        (if r.cosim_ok then "" else "  COSIM FAIL"))
    rows;
  {
    Harness.body =
      [ ("workloads", Arr (List.map row_json rows)); ("reduced_workloads", of_int reduced) ];
    gates =
      [ ("all_cosim_ok", List.for_all (fun r -> r.cosim_ok) rows);
        ("never_larger", List.for_all (fun r -> r.narrow_area <= r.base_area) rows);
        ("reduced_workloads >= 2", reduced >= 2);
        Harness.counters_gate "range/" ];
  }

let section =
  {
    Harness.name = "analysis";
    benchmark = "range_narrowing";
    settings = [ ("runs", 3) ];
    deterministic = true;
    run;
  }
