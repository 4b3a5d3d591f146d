(* Feedback-guided refinement section: every workload is synthesized
   one-shot under every scheduler at the default limits; the best
   one-shot design per objective (area, latency) then seeds the
   iterative refinement loop ([Flow.refine_design]) at iterate bounds
   1..3. Each refined design is cosimulated against the behavioral
   reference. Gates: refinement is never worse than the best one-shot
   design on either coordinate on every row, strictly better on at
   least two workloads, every refined design's cosim is bit-identical,
   the refined values are monotone in the iterate bound, and a loop
   that accepted nothing returns its seed bit-identically. *)

open Hls_core
open Hls_util.Json

let max_iterate = 3

let schedulers =
  [ Flow.Asap; Flow.List_path; Flow.List_mobility; Flow.Freedom; Flow.Branch_bound;
    Flow.Ilp_exact; Flow.Trans_parallel; Flow.Trans_serial ]

type metric = { area : int; latency : float }

let metric (d : Flow.design) =
  {
    area = d.Flow.estimate.Hls_rtl.Estimate.total_area;
    latency = d.Flow.estimate.Hls_rtl.Estimate.latency_ns;
  }

type row = {
  name : string;
  objective : string;  (** ["area"] or ["latency"] *)
  seed_scheduler : string;
  seed : metric;
  refined : metric;  (** at the largest iterate bound *)
  iters : int;  (** accepted iterations at that bound *)
  cosim_ok : bool;  (** every refined design, at every bound *)
  monotone : bool;  (** values never regress as the bound grows *)
  identity_ok : bool;  (** no acceptance => returned design IS the seed *)
  ms : float;  (** refinement time at the largest bound *)
}

let refine ~runs name o (objective, s, opts, seed) =
  let cosim_ok = ref true and monotone = ref true in
  let prev = ref (metric seed) and last = ref (seed, 0, 0.0) in
  for k = 1 to max_iterate do
    let (d, iters), ms =
      Harness.time_ms (fun () -> Flow.refine_design { opts with Flow.iterate = k } o seed)
    in
    let m = metric d in
    if m.area > !prev.area || m.latency > !prev.latency +. 1e-6 then monotone := false;
    prev := m;
    (match Flow.verify ~runs d with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "%s/%s: iterate %d cosim diverged: %s\n" name objective k e;
        cosim_ok := false);
    last := (d, iters, ms)
  done;
  let d, iters, ms = !last in
  {
    name;
    objective;
    seed_scheduler = Flow.scheduler_to_string s;
    seed = metric seed;
    refined = metric d;
    iters;
    cosim_ok = !cosim_ok;
    monotone = !monotone;
    identity_ok = iters > 0 || Dse.design_digest d = Dse.design_digest seed;
    ms;
  }

let rows ~runs (name, src) =
  let options = Flow.default_options in
  let o =
    Flow.midend ~passes:options.Flow.passes ~if_conversion:options.Flow.if_conversion
      (Flow.frontend src)
  in
  (* the one-shot field: every scheduler at the default limits *)
  let oneshot =
    List.filter_map
      (fun s ->
        let opts = { options with Flow.scheduler = s } in
        match Flow.backend_result opts o with Ok d -> Some (s, opts, d) | Error _ -> None)
      schedulers
  in
  let best (objective, key) =
    match
      List.sort (fun (_, _, a) (_, _, b) -> compare (key (metric a)) (key (metric b))) oneshot
    with
    | (s, opts, d) :: _ -> (objective, s, opts, d)
    | [] -> Harness.die "%s: no one-shot design synthesized" name
  in
  List.map
    (fun objective -> refine ~runs name o (best objective))
    [ ("area", fun m -> (float_of_int m.area, m.latency));
      ("latency", fun m -> (m.latency, float_of_int m.area)) ]

let metric_json m = Obj [ ("area", of_int m.area); ("latency_ns", Num m.latency) ]

let row_json r =
  Obj
    [ ("name", Str r.name);
      ("objective", Str r.objective);
      ("seed_scheduler", Str r.seed_scheduler);
      ("seed", metric_json r.seed);
      ("refined", metric_json r.refined);
      ("iterations", of_int r.iters);
      ("converged", Bool (r.iters < max_iterate));
      ("cosim_ok", Bool r.cosim_ok);
      ("monotone", Bool r.monotone);
      ("identity_ok", Bool r.identity_ok);
      ("ms", Num r.ms) ]

let run get =
  let rows = List.concat_map (rows ~runs:(get "runs")) Workloads.all in
  let strict r =
    (r.refined.area < r.seed.area && r.refined.latency <= r.seed.latency +. 1e-6)
    || (r.refined.latency < r.seed.latency && r.refined.area <= r.seed.area)
  in
  let improved =
    List.length
      (List.sort_uniq compare (List.filter_map (fun r -> if strict r then Some r.name else None) rows))
  in
  List.iter
    (fun r ->
      Printf.printf "  %-10s %-7s seed %-13s (%5d, %7.0f)  refined (%5d, %7.0f)  iters %d%s%s\n"
        r.name r.objective r.seed_scheduler r.seed.area r.seed.latency r.refined.area
        r.refined.latency r.iters
        (if r.iters < max_iterate then "" else " (bound hit)")
        (if r.cosim_ok then "" else "  COSIM FAIL"))
    rows;
  {
    Harness.body =
      [ ("max_iterate", of_int max_iterate);
        ("workloads", Arr (List.map row_json rows));
        ("improved_workloads", of_int improved) ];
    gates =
      [ ("all_cosim_ok", List.for_all (fun r -> r.cosim_ok) rows);
        ( "never_worse",
          List.for_all
            (fun r ->
              r.refined.area <= r.seed.area && r.refined.latency <= r.seed.latency +. 1e-6)
            rows );
        ("monotone", List.for_all (fun r -> r.monotone) rows);
        ("identity_ok", List.for_all (fun r -> r.identity_ok) rows);
        ("improved_workloads >= 2", improved >= 2) ];
  }

let section =
  {
    Harness.name = "refine";
    benchmark = "refine";
    settings = [ ("runs", 3) ];
    deterministic = true;
    run;
  }
