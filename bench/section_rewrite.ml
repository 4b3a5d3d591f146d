(* Rewrite/extraction section: every workload is synthesized under the
   fixed [standard] and [aggressive] pipelines and under cost-guided
   extraction ([extract] = aggressive + cross-block sharing + ILP
   extraction on the area objective, plus the same pass set on the
   latency objective). Each extracted design is cosimulated against the
   behavioral reference. Gates: every extracted cosim is bit-identical,
   area-guided extraction is never worse than fixed [aggressive] on
   area, latency-guided extraction never worse on latency, and at least
   one workload strictly improves. *)

open Hls_core
open Hls_util.Json

let pipeline spec =
  match Hls_transform.Passes.pipeline_of_string spec with
  | Ok p -> p
  | Error e -> Harness.die "internal error: bad pipeline %S: %s" spec e

type metric = { area : int; latency : float; ms : float }

let synth spec src =
  let d, ms =
    Harness.time_ms (fun () ->
        Flow.synthesize ~options:{ Flow.default_options with Flow.passes = pipeline spec } src)
  in
  ( d,
    {
      area = d.Flow.estimate.Hls_rtl.Estimate.total_area;
      latency = d.Flow.estimate.Hls_rtl.Estimate.latency_ns;
      ms;
    } )

type row = {
  name : string;
  std : metric;
  agg : metric;
  ext_area : metric;  (** extract, area objective *)
  ext_lat : metric;  (** same pass set, latency objective *)
  cosim_ok : bool;
}

(* A bench-local kernel where every multiply is by a 2^a +- 2^b
   constant: extraction can retire the whole multiplier class, which
   the fixed pipelines cannot (strength reduction only handles the
   power-of-two cases). The paper workloads all keep at least one
   variable x variable product, so on them the cost model correctly
   leaves constant multiplies on the already-materialized multiplier —
   this row is where a strict improvement is expected. *)
let scale4 =
  ( "scale4",
    "module scale4(input x0, x1, x2, x3: int<16>; output y: int<16>);\n\
     begin y := 3 * x0 + 5 * x1 + 6 * x2 + 9 * x3; end" )

let row ~runs (name, src) =
  let _, std = synth "standard" src in
  let _, agg = synth "aggressive" src in
  let d_ea, ext_area = synth "extract" src in
  let d_el, ext_lat = synth "extract+extract:latency" src in
  let cosim d what =
    match Flow.verify ~runs d with
    | Ok () -> true
    | Error e ->
        Printf.eprintf "%s: %s cosim diverged: %s\n" name what e;
        false
  in
  let cosim_ok = cosim d_ea "extract:area" && cosim d_el "extract:latency" in
  { name; std; agg; ext_area; ext_lat; cosim_ok }

let metric_json m = Obj [ ("area", of_int m.area); ("latency_ns", Num m.latency); ("ms", Num m.ms) ]

let row_json r =
  Obj
    [ ("name", Str r.name);
      ("standard", metric_json r.std);
      ("aggressive", metric_json r.agg);
      ("extract_area", metric_json r.ext_area);
      ("extract_latency", metric_json r.ext_lat);
      ("cosim_ok", Bool r.cosim_ok) ]

let run get =
  let rows = List.map (row ~runs:(get "runs")) (Workloads.all @ [ scale4 ]) in
  let improved =
    List.length
      (List.filter
         (fun r -> r.ext_area.area < r.agg.area || r.ext_lat.latency < r.agg.latency)
         rows)
  in
  List.iter
    (fun r ->
      Printf.printf
        "  %-10s area std %5d  agg %5d  extract %5d | latency agg %7.1f  extract %7.1f%s\n"
        r.name r.std.area r.agg.area r.ext_area.area r.agg.latency r.ext_lat.latency
        (if r.cosim_ok then "" else "  COSIM FAIL"))
    rows;
  {
    Harness.body =
      [ ("workloads", Arr (List.map row_json rows)); ("improved_workloads", of_int improved) ];
    gates =
      [ ("all_cosim_ok", List.for_all (fun r -> r.cosim_ok) rows);
        ("area_never_worse", List.for_all (fun r -> r.ext_area.area <= r.agg.area) rows);
        ( "latency_never_worse",
          List.for_all (fun r -> r.ext_lat.latency <= r.agg.latency +. 1e-6) rows );
        ("improved_workloads >= 1", improved >= 1) ];
  }

let section =
  {
    Harness.name = "rewrite";
    benchmark = "rewrite_extraction";
    settings = [ ("runs", 3) ];
    deterministic = true;
    run;
  }
