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

(* A class listed twice keeps its smallest cap, whatever the order:
   [--fus alu:2,alu:1] is [--fus alu:1] under every scheduler that
   honours the limits. *)
let test_class_listed_twice () =
  let (Flow.Knob.Words w) = Flow.Knob.limits.kind in
  let synth scheduler fus =
    let limits = Result.get_ok (w.Flow.Knob.parse fus) in
    Flow.synthesize ~options:{ Flow.default_options with Flow.scheduler; limits } Workloads.diffeq
  in
  let honouring =
    List.filter (fun s -> not (Flow.scheduler_ignores_limits s)) Explore.default_schedulers
  in
  Alcotest.(check int) "seven schedulers honour the limits" 7 (List.length honouring);
  List.iter
    (fun scheduler ->
      let name = Flow.scheduler_to_string scheduler in
      let one = synth scheduler "alu:1" in
      List.iter
        (fun fus ->
          let d = synth scheduler fus in
          Alcotest.(check string) (name ^ " " ^ fus ^ ": schedule") (Cfg_sched.digest one.Flow.sched)
            (Cfg_sched.digest d.Flow.sched);
          Alcotest.(check int) (name ^ " " ^ fus ^ ": area")
            one.Flow.estimate.Hls_rtl.Estimate.total_area d.Flow.estimate.Hls_rtl.Estimate.total_area;
          Alcotest.(check (float 0.)) (name ^ " " ^ fus ^ ": latency")
            one.Flow.estimate.Hls_rtl.Estimate.latency_ns d.Flow.estimate.Hls_rtl.Estimate.latency_ns)
        [ "alu:2,alu:1"; "alu:1,alu:2" ])
    honouring

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

(* ---- golden designs ---- *)

(* Canonical text of a finished design's backend: registers, units,
   activations, loads and conditions in state order, transfers, the
   estimate and the controller's cost. Text, not Marshal bytes, so the digest pins what
   allocation and binding decide and survives record layout changes. *)
let design_text b (d : Flow.design) =
  let module D = Hls_rtl.Datapath in
  let module I = Hls_alloc.Interconnect in
  let add fmt = Printf.bprintf b fmt in
  let dp = d.Flow.datapath in
  let kind = function `In_port -> "in" | `Out_port -> "out" | `Var -> "var" | `Temp -> "temp" in
  Array.iter (fun (r : D.reg_def) -> add "reg %s %d %s\n" r.D.rname r.D.rwidth (kind r.D.rkind)) dp.D.regs;
  Array.iteri
    (fun i (f : D.fu_def) -> add "fu %d %s %d\n" i f.D.comp.Hls_rtl.Component.cname f.D.fwidth)
    dp.D.fus;
  Array.iteri
    (fun s ->
      Array.iter (fun (a : D.activity) ->
          add "act s%d fu%d %s %s (%s)\n" s a.D.a_fu (Hls_cdfg.Op.to_string a.D.a_op)
            (Hls_lang.Ast.ty_to_string a.D.a_ty)
            (String.concat ", " (List.map Hls_rtl.Wire.to_string a.D.a_args))))
    dp.D.acts;
  Array.iteri
    (fun s ->
      Array.iter (fun (l : D.load) ->
          add "load s%d %s <= %s\n" s l.D.l_reg (Hls_rtl.Wire.to_string l.D.l_wire)))
    dp.D.loads;
  Array.iteri
    (fun s -> Option.iter (fun w -> add "cond s%d %s\n" s (Hls_rtl.Wire.to_string w)))
    dp.D.conds;
  List.iter
    (fun (t : I.transfer) ->
      add "xfer b%d.s%d %s -> %s\n" t.I.t_bid t.I.t_step (I.wire_to_string t.I.t_src)
        (I.dest_to_string t.I.t_dst))
    d.Flow.transfers;
  let e = d.Flow.estimate in
  add "estimate %d %d %d %d %d %h %d %h\n" e.Hls_rtl.Estimate.fu_area e.Hls_rtl.Estimate.reg_area
    e.Hls_rtl.Estimate.mux_area e.Hls_rtl.Estimate.ctrl_area e.Hls_rtl.Estimate.total_area
    e.Hls_rtl.Estimate.cycle_ns e.Hls_rtl.Estimate.compute_steps e.Hls_rtl.Estimate.latency_ns;
  add "ctrl %d %d\n"
    (Hls_ctrl.Ctrl_synth.literal_cost d.Flow.controller)
    (Hls_ctrl.Ctrl_synth.n_state_bits d.Flow.controller)

(* The default sweep's points, each under [variants] of the options, one
   design text per point through one engine. *)
let add_designs b ~engine ~schedulers ~variants =
  List.iter
    (fun (label, opts) ->
      List.iter
        (fun (tag, vary) ->
          Printf.bprintf b "== %s %s\n" label tag;
          match Dse.eval_result engine (vary opts) with
          | Ok d -> design_text b d
          | Error _ -> Buffer.add_string b "error\n")
        variants)
    (Explore.cross ~base:Flow.default_options ~schedulers ~limits:Explore.default_limits ())

(* biquad3's flat block is past what branch-and-bound and 0/1
   programming finish on: it gets the polynomial schedulers *)
let polynomial_schedulers =
  List.filter
    (fun s -> s <> Flow.Branch_bound && s <> Flow.Ilp_exact)
    Explore.default_schedulers

(* Captured with the records in state order, before the datapath moved
   onto per-state arrays (the values are those of the flat-list layout);
   any change to a register, unit, wire, transfer or estimate of any of
   these designs changes a digest. *)
let golden_design_digests =
  [
    ("sqrt", "f0c0b2098673a5a49093546c335018ef");
    ("diffeq", "66db84af8cfb21b9cfdd4c9eeb1d60d9");
    ("fir8", "c8468230c1f2baf90cb78f253523dfa0");
    ("gcd", "66b10b62640df1690d12281f9768adcb");
    ("biquad3", "cec81ef03edc054bbb52a54296c4661d");
    ("twophase", "fbc5bf85159263f5d2f9cbe01929ce2c");
  ]

let golden_random_design_digest = "136e431710662ab0e67c3cfe0cea7809"

let test_golden_workload_designs () =
  let variants =
    List.concat_map
      (fun allocator ->
        List.map
          (fun narrow ->
            ( Printf.sprintf "%s%s" (Flow.Knob.text Flow.Knob.allocator allocator)
                (if narrow then " narrow" else ""),
              fun o -> { o with Flow.allocator; narrow } ))
          [ false; true ])
      (Flow.Knob.values Flow.Knob.allocator)
  in
  List.iter
    (fun (name, src) ->
      let b = Buffer.create 65536 in
      let schedulers =
        if name = "biquad3" then polynomial_schedulers else Explore.default_schedulers
      in
      add_designs b ~engine:(Dse.create src) ~schedulers ~variants;
      Alcotest.(check string)
        (name ^ " design digest")
        (List.assoc name golden_design_digests)
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    Workloads.all

let test_golden_random_designs () =
  let b = Buffer.create (1 lsl 20) in
  for seed = 0 to 199 do
    Printf.bprintf b "seed %d\n" seed;
    add_designs b
      ~engine:(Dse.create_program (Gen.program_of_seed seed))
      ~schedulers:Explore.default_schedulers
      ~variants:[ ("", Fun.id) ]
  done;
  Alcotest.(check string) "seeds 0-199 design digest" golden_random_design_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

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
          Alcotest.test_case "a class listed twice keeps its smallest cap" `Quick
            test_class_listed_twice;
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
      ( "golden",
        [
          Alcotest.test_case "workloads x default cross x allocators x narrow" `Quick
            test_golden_workload_designs;
          Alcotest.test_case "random programs x default cross" `Quick
            test_golden_random_designs;
        ] );
    ]
