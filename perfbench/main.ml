(* The benchmark's entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1 --scratch DIR

   --trace 0 measures end to end in three processes one after another,
   each set up three times and then issuing whole cycles of the
   workload's requests until its third of S seconds has passed (at
   least one cycle); samples are pooled and set-up is the median.
   --trace 1 measures per layer: one untraced cycle, then two traced
   cycles whose exact counts must agree.
   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. Spans of the first traced
   cycle are written to DIR. *)

module type WORKLOAD = sig
  type env

  val setup : seed:int -> scratch:string -> env
  val cycle : env -> Meter.t -> unit
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("synth_dsp", (module Synth_dsp));
    ("dse_control", (module Dse_control));
    ("serve_replay", (module Serve_replay));
  ]


let metric name unit value = (name, (value, unit))

(* Values are printed with every digit, so no figure reads the same
   twice by rounding. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter (fun (name, (v, u)) -> Printf.printf "  %-32s %14.4f %s\n" name v u) metrics;
  Printf.printf "attempted %d, failed %d\n" attempted failed;
  let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, (v, u)) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) u)
          metrics))

(* ---- end to end ---- *)

(* What one measuring process hands back. *)
type sample = {
  setups : float list;
  meter : Meter.t;
  rss_mb : float;
}

let measure (module W : WORKLOAD) ~seed ~seconds ~scratch =
  let setups =
    List.init 3 (fun _ ->
        let t0 = Unix.gettimeofday () in
        let env = W.setup ~seed ~scratch in
        (env, Unix.gettimeofday () -. t0))
  in
  let env = fst (List.nth setups 2) in
  let meter = Meter.create () in
  let deadline = Unix.gettimeofday () +. seconds in
  W.cycle env meter;
  meter.first_cycle <- false;
  while Unix.gettimeofday () < deadline do
    W.cycle env meter
  done;
  { setups = List.map snd setups; meter; rss_mb = Meter.peak_rss_mb () }

(* Run [f] in a child process and return its result. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r = try (Marshal.from_channel ic : (sample, string) result) with End_of_file -> Error "child died" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      r

(* On a shared host one process can run up to 15% slower than the next
   for its whole life (most on the allocation-heavy workload), so a run
   measures in [processes] processes one after another, each for an
   equal share of the seconds, and pools their samples. *)
let processes = 3

let end_to_end w ~seed ~seconds ~scratch =
  let share = float_of_int seconds /. float_of_int processes in
  let samples =
    List.init processes (fun _ ->
        match in_child (fun () -> measure w ~seed ~seconds:share ~scratch) with
        | Ok s -> s
        | Error e -> failwith ("measuring process failed: " ^ e))
  in
  let all f = List.concat_map f samples in
  let sum f = List.fold_left (fun acc s -> acc + f s.meter) 0 samples in
  let lat = all (fun s -> s.meter.Meter.lat_ms) in
  let busy = List.fold_left (fun acc s -> acc +. s.meter.Meter.busy_s) 0. samples in
  let first = (List.hd samples).meter in
  let quality_agrees =
    List.for_all
      (fun s -> s.meter.Meter.areas = first.areas && s.meter.Meter.latencies_ns = first.latencies_ns)
      samples
  in
  if not quality_agrees then prerr_endline "perfbench: processes returned different designs";
  let p q = Meter.percentile q lat in
  ( sum (fun m -> m.Meter.attempted),
    (sum (fun m -> m.Meter.failed) + if quality_agrees then 0 else 1),
    [
      metric "setup_s" "s" (Meter.median (all (fun s -> s.setups)));
      metric "req_ms_p50" "ms" (p 0.5);
      metric "req_ms_p90" "ms" (p 0.9);
      metric "req_ms_p99" "ms" (p 0.99);
      metric "points_per_s" "1/s" (float_of_int (sum (fun m -> m.Meter.points)) /. busy);
      metric "peak_rss_mb" "MB" (List.fold_left (fun m s -> max m s.rss_mb) 0. samples);
      metric "area_geomean" "area" (Meter.geomean first.areas);
      metric "latency_ns_geomean" "ns" (Meter.geomean first.latencies_ns);
    ] )

(* ---- per layer ---- *)

let scheduler_metric =
  [
    ("asap", "sched.asap_ms");
    ("list/path", "sched.list_ms");
    ("list/mobility", "sched.list_mobility_ms");
    ("force-directed+0", "sched.fds_ms");
    ("freedom", "sched.freedom_ms");
    ("branch-and-bound", "sched.bb_ms");
    ("0/1-programming", "sched.ilp_ms");
    ("transformational/parallel", "sched.trans_par_ms");
    ("transformational/serial", "sched.trans_ser_ms");
  ]

(* One traced cycle's figures. *)
type pass = {
  self : (string, float * float) Hashtbl.t;  (** layer -> seconds, minor words *)
  counts : (string * int) list;
  maxima : (string * int) list;
  handle : (string * float list) list;  (** serve request class -> handle seconds *)
  lat_ms : float list;
  area : float;
  latency_ns : float;
  spans : int;
}

let run_pass cycle meter =
  Spans.reset ();
  cycle meter;
  let tbl h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] in
  {
    self = Spans.self_times ();
    counts = tbl Spans.counts;
    maxima = tbl Spans.maxima;
    handle =
      List.map
        (fun cls -> (cls, Spans.durations "serve.handle" ~cls))
        [ "miss"; "mem_hit"; "disk_hit" ];
    lat_ms = meter.Meter.lat_ms;
    area = Meter.geomean meter.areas;
    latency_ns = Meter.geomean meter.latencies_ns;
    spans = Spans.n_spans ();
  }

let count p name = Option.value ~default:0 (List.assoc_opt name p.counts)

let sum_prefix p ~suffix =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix:"dse/" name && String.ends_with ~suffix name then acc + v
      else acc)
    0 p.counts

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* The figures that must repeat exactly between the two traced passes. *)
let exact p =
  [
    ("cdfg.ops", float_of_int (count p "cdfg.ops"));
    ("sched.ops_scheduled", float_of_int (count p "sched/ops_scheduled"));
    ("ctrl.qm_iterations", float_of_int (count p "ctrl/qm_iterations"));
    ("dse.hits", float_of_int (sum_prefix p ~suffix:".hits"));
    ("dse.misses", float_of_int (sum_prefix p ~suffix:".misses"));
    ( "serve.disk_hit_ratio",
      ratio (count p "serve/disk_hits") (count p "serve/disk_misses") );
    ("area_geomean", p.area);
    ("latency_ns_geomean", p.latency_ns);
  ]

let per_layer (module W : WORKLOAD) ~seed ~scratch =
  let cycle = W.cycle (W.setup ~seed ~scratch) in
  let untraced = Meter.create () in
  cycle untraced;
  Spans.enabled := true;
  let ma = Meter.create () and mb = Meter.create () in
  let a = run_pass cycle ma in
  let spans_a = !Spans.recorded in
  let b = run_pass cycle mb in
  Spans.enabled := false;
  Spans.write spans_a (Filename.concat scratch "spans.json");
  let mismatches =
    List.filter_map
      (fun ((name, va), (_, vb)) -> if va = vb then None else Some (name, va, vb))
      (List.combine (exact a) (exact b))
  in
  List.iter
    (fun (name, va, vb) ->
      Printf.eprintf "perfbench: %s is not exact: %.17g then %.17g\n%!" name va vb)
    mismatches;
  let self name =
    List.fold_left
      (fun (t, w) p ->
        let t', w' = Option.value ~default:(0., 0.) (Hashtbl.find_opt p.self name) in
        (t +. t', w +. w'))
      (0., 0.) [ a; b ]
  in
  let ms name = metric (name ^ "_ms") "ms" (fst (self name) *. 1000.) in
  let mw name = metric (name ^ "_mw") "Mwords" (snd (self name) /. 1e6) in
  let both name = count a name + count b name in
  let cnt metric_name name = metric metric_name "count" (float_of_int (both name)) in
  let hit_ratio layer =
    metric
      ("core.dse." ^ layer ^ "_hit_ratio")
      "ratio"
      (ratio (both ("dse/" ^ layer ^ ".hits")) (both ("dse/" ^ layer ^ ".misses")))
  in
  let handle_p50 cls =
    metric ("serve.handle_ms_" ^ cls) "ms"
      (1000. *. Meter.median (List.concat_map (fun p -> List.assoc cls p.handle) [ a; b ]))
  in
  let alloc_parts = [ "alloc.fu"; "alloc.reg"; "alloc.interconnect"; "alloc.allocate" ] in
  let alloc_t, alloc_w =
    List.fold_left
      (fun (t, w) n ->
        let t', w' = self n in
        (t +. t', w +. w'))
      (0., 0.) alloc_parts
  in
  let maximum name =
    List.fold_left (fun m p -> max m (Option.value ~default:0 (List.assoc_opt name p.maxima))) 0 [ a; b ]
  in
  let metrics =
    [ ms "lang.frontend"; mw "lang.frontend"; ms "transform.midend"; mw "transform.midend" ]
    @ [ cnt "cdfg.ops" "cdfg.ops"; cnt "cdfg.blocks" "cdfg.blocks" ]
    @ [ ms "sched.schedule"; mw "sched.schedule" ]
    @ List.map
        (fun (sch, name) -> metric name "ms" (fst (self ("sched." ^ sch)) *. 1000.))
        scheduler_metric
    @ [
        cnt "sched.ops_scheduled" "sched/ops_scheduled";
        cnt "sched.steps" "sched/steps";
        cnt "sched.fd_force_evals" "sched/fd_force_evals";
      ]
    @ [ ms "alloc.fu"; ms "alloc.reg"; ms "alloc.interconnect" ]
    @ [
        metric "alloc_ms" "ms" (alloc_t *. 1000.);
        metric "alloc_mw" "Mwords" (alloc_w /. 1e6);
        cnt "alloc.clique_merges" "alloc/clique_merges";
        cnt "alloc.registers" "alloc.registers";
        cnt "alloc.transfers" "alloc.transfers";
      ]
    @ [ ms "rtl.datapath"; ms "rtl.estimate" ]
    @ [
        ms "ctrl.synth";
        mw "ctrl.synth";
        cnt "ctrl.qm_iterations" "ctrl/qm_iterations";
        cnt "ctrl.fsm_states" "ctrl.fsm_states";
        metric "ctrl.inputs_max" "count" (float_of_int (maximum "ctrl.inputs_max"));
      ]
    @ [ ms "sim.cosim"; cnt "sim.cycles" "sim/cycles"; cnt "sim.batch_vectors" "sim/batch_vectors" ]
    @ [ ms "core.dse.cheap"; ms "core.dse.backend"; ms "core.explore.bound" ]
    @ List.map hit_ratio [ "frontend"; "midend"; "schedule"; "backend" ]
    @ [
        metric "core.explore.promoted_frac" "ratio"
          (ratio (both "dse/points_evaluated") (both "dse/pruned_points"));
      ]
    @ [ ms "serve.decode"; ms "serve.handle" ]
    @ List.map handle_p50 [ "miss"; "mem_hit"; "disk_hit" ]
    @ [
        metric "serve.disk_hit_ratio" "ratio"
          (ratio (both "serve/disk_hits") (both "serve/disk_misses"));
        cnt "serve.errors" "serve.errors";
        cnt "serve.busy" "serve.busy";
      ]
    @ [
        metric "request.self_ms" "ms" (fst (self "request") *. 1000.);
        metric "trace.overhead_ms" "ms"
          (Meter.median (a.lat_ms @ b.lat_ms) -. Meter.median untraced.lat_ms);
        metric "trace.spans" "count" (float_of_int (a.spans + b.spans));
        metric "exact.mismatches" "count" (float_of_int (List.length mismatches));
      ]
  in
  let meters = [ untraced; ma; mb ] in
  let sum f = List.fold_left (fun acc m -> acc + f m) 0 meters in
  (sum (fun m -> m.Meter.attempted), sum (fun m -> m.Meter.failed), metrics)

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let scratch = ref ".bench_build/perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME synth_dsp | dse_control | serve_replay");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (end to end)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--scratch", Arg.Set_string scratch, "DIR spans and serve cache directories");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
  | Some w ->
      let scratch = Filename.concat !scratch (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ())) in
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          Unix.mkdir d 0o755
        end
      in
      mkdir_p scratch;
      Printf.printf "perfbench %s seed %d\n" !workload !seed;
      let attempted, failed, metrics =
        if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds ~scratch
        else per_layer w ~seed:!seed ~scratch
      in
      (* an untraced run leaves nothing behind *)
      (try Unix.rmdir scratch with Unix.Unix_error _ -> ());
      emit ~correct:(failed = 0) ~attempted ~failed metrics
