(* Scheduler tests: the paper's Fig 3/4 ASAP-vs-list example, the Fig 5
   force-directed distribution graph, the Fig 2 schedule lengths, and
   properties over random DAGs (validity of every algorithm, optimality
   ordering against branch-and-bound). *)

open Hls_lang
open Hls_cdfg
open Hls_sched

let i16 = Ast.Tint 16

(* The Fig 3/4 situation: two independent low-priority operations appear
   first in specification order; a three-operation critical chain
   follows. With two units, ASAP fills step 1 with the low-priority ops
   and stretches the chain; list scheduling (path-length priority) starts
   the chain immediately. *)
let fig34_dfg () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i16 in
  let b = Dfg.add g (Op.Read "b") [] i16 in
  let x1 = Dfg.add g Op.Add [ a; b ] i16 in
  let x2 = Dfg.add g Op.Sub [ a; b ] i16 in
  let c1 = Dfg.add g Op.Mul [ a; b ] i16 in
  let c2 = Dfg.add g Op.Add [ c1; a ] i16 in
  let c3 = Dfg.add g Op.Add [ c2; b ] i16 in
  ignore (Dfg.add g (Op.Write "o1") [ x1 ] i16);
  ignore (Dfg.add g (Op.Write "o2") [ x2 ] i16);
  ignore (Dfg.add g (Op.Write "o3") [ c3 ] i16);
  g

let limits2 = Limits.Total 2

let test_fig3_asap_suboptimal () =
  let g = fig34_dfg () in
  let s = Asap.schedule ~limits:limits2 g in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Schedule.verify limits2 s);
  Alcotest.(check int) "ASAP needs 4 steps" 4 (Schedule.n_steps s)

let test_fig4_list_optimal () =
  let g = fig34_dfg () in
  let s = List_sched.schedule ~limits:limits2 g in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Schedule.verify limits2 s);
  Alcotest.(check int) "list needs 3 steps" 3 (Schedule.n_steps s)

let test_fig4_bb_confirms () =
  let g = fig34_dfg () in
  match Branch_bound.schedule ~limits:limits2 g with
  | Some s -> Alcotest.(check int) "optimum is 3" 3 (Schedule.n_steps s)
  | None -> Alcotest.fail "graph small enough for exact search"

(* Fig 5: chain a1 -> a2 -> m with deadline 3 pins a1, a2; a3 (also an
   add, depending on a1) ranges over steps 2..3. Expected distribution
   for the add class: [1.0; 1.5; 0.5]; balancing places a3 in step 3. *)
let fig5_dfg () =
  let g = Dfg.create () in
  let x = Dfg.add g (Op.Read "x") [] i16 in
  let y = Dfg.add g (Op.Read "y") [] i16 in
  let a1 = Dfg.add g Op.Add [ x; y ] i16 in
  let a2 = Dfg.add g Op.Add [ a1; y ] i16 in
  let m = Dfg.add g Op.Mul [ a2; x ] i16 in
  let a3 = Dfg.add g Op.Add [ a1; x ] i16 in
  ignore (Dfg.add g (Op.Write "o1") [ m ] i16);
  ignore (Dfg.add g (Op.Write "o2") [ a3 ] i16);
  (g, a3)

let test_fig5_distribution () =
  let g, _ = fig5_dfg () in
  let dep = Depgraph.of_dfg g in
  let asap = Depgraph.asap dep in
  let alap = Depgraph.alap dep ~deadline:3 in
  let dg = Force_directed.distribution dep ~asap ~alap ~cls:Op.C_alu ~deadline:3 in
  Alcotest.(check (array (float 0.001))) "distribution graph (Fig 5)"
    [| 1.0; 1.5; 0.5 |] dg

let test_fig5_fds_balances () =
  let g, a3 = fig5_dfg () in
  let s = Force_directed.schedule ~deadline:3 g in
  Alcotest.(check (result unit string)) "valid" (Ok ())
    (Schedule.verify Limits.Unlimited s);
  Alcotest.(check int) "a3 balanced into step 3" 3 (Schedule.step_of s a3);
  Alcotest.(check (list (pair string int))) "one adder, one multiplier"
    [ ("alu", 1); ("mul", 1) ]
    (List.map
       (fun (c, n) -> (Op.fu_class_to_string c, n))
       (Schedule.fu_requirement s))

let test_fds_deadline_too_tight () =
  let g, _ = fig5_dfg () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Force_directed.schedule ~deadline:2 g);
       false
     with Invalid_argument _ -> true)

(* ---- Fig 2: whole-program schedule lengths ---- *)

let test_fig2_lengths () =
  let _, cfg = Compile.compile_source Hls_core.Workloads.sqrt_newton in
  let cs = Cfg_sched.make cfg ~scheduler:(List_sched.schedule ~limits:Limits.serial) in
  Alcotest.(check int) "serial unoptimized = 23" 23 (Cfg_sched.compute_steps cs);
  let _, cfg2 = Compile.compile_source Hls_core.Workloads.sqrt_newton in
  let cfg2 =
    Hls_transform.Passes.run_pipeline ~outputs:[ "y" ]
      (Hls_transform.Passes.standard @ [ Hls_transform.Passes.find_exn "loop-recode" ])
      cfg2
  in
  let cs2 = Cfg_sched.make cfg2 ~scheduler:(List_sched.schedule ~limits:Limits.two_fu) in
  Alcotest.(check int) "two FUs optimized = 10" 10 (Cfg_sched.compute_steps cs2);
  Alcotest.(check (result unit string)) "valid" (Ok ())
    (Cfg_sched.verify Limits.two_fu cs2)

(* ---- freedom-based ---- *)

let test_freedom_meets_critical_path () =
  let g = fig34_dfg () in
  let dep = Depgraph.of_dfg g in
  let s = Freedom.schedule g in
  Alcotest.(check int) "critical-path length met" (Depgraph.critical_length dep)
    (Schedule.n_steps s);
  Alcotest.(check (result unit string)) "deps hold" (Ok ())
    (Schedule.verify Limits.Unlimited s)

(* ---- transformational ---- *)

let test_transformational_legal () =
  let g = fig34_dfg () in
  List.iter
    (fun (name, s) ->
      Alcotest.(check (result unit string)) name (Ok ()) (Schedule.verify limits2 s))
    [
      ("from parallel", Transformational.from_parallel ~limits:limits2 g);
      ("from serial", Transformational.from_serial ~limits:limits2 g);
    ]

let test_serial_compaction_beats_serial () =
  let g = fig34_dfg () in
  let s = Transformational.from_serial ~limits:limits2 g in
  Alcotest.(check bool) "compacted below 7 steps" true (Schedule.n_steps s < 7)

(* ---- depgraph ---- *)

let test_depgraph_through_free_ops () =
  (* x >> 1 (free) between two adds: the adds must still be chained *)
  let g = Dfg.create () in
  let x = Dfg.add g (Op.Read "x") [] i16 in
  let a1 = Dfg.add g Op.Add [ x; x ] i16 in
  let k = Dfg.add g (Op.Const 1) [] (Ast.Tint 6) in
  let sh = Dfg.add g Op.Shr [ a1; k ] i16 in
  let a2 = Dfg.add g Op.Add [ sh; x ] i16 in
  ignore (Dfg.add g (Op.Write "y") [ a2 ] i16);
  let dep = Depgraph.of_dfg g in
  Alcotest.(check int) "2 ops" 2 (Depgraph.n_ops dep);
  Alcotest.(check int) "critical length" 2 (Depgraph.critical_length dep);
  let i1 = Depgraph.index_of dep a1 and i2 = Depgraph.index_of dep a2 in
  Alcotest.(check (list int)) "edge through shift" [ i1 ] (Depgraph.preds dep i2)

(* ---- properties over random DAGs ---- *)

let limits_choices =
  [ Limits.Serial; Limits.Total 2; Limits.Total 3;
    Limits.Classes [ (Op.C_alu, 1); (Op.C_mul, 1) ]; Limits.Unlimited ]

let all_schedulers limits g =
  [
    ("asap", Asap.schedule ~limits g);
    ("list/path", List_sched.schedule ~limits g);
    ("list/mobility",
     List_sched.schedule ~priority:(List_sched.Mobility 100) ~limits g);
    ("list/urgency", List_sched.schedule ~priority:(List_sched.Urgency 100) ~limits g);
    ("list/fifo", List_sched.schedule ~priority:List_sched.Fifo ~limits g);
    ("trans/par", Transformational.from_parallel ~limits g);
    ("trans/ser", Transformational.from_serial ~limits g);
  ]

let prop_all_schedulers_valid =
  QCheck.Test.make ~name:"every scheduler produces a valid schedule" ~count:120
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      List.for_all
        (fun limits ->
          List.for_all
            (fun (_, s) -> Schedule.verify limits s = Ok ())
            (all_schedulers limits g))
        limits_choices)

let prop_list_sched_matches_reference =
  QCheck.Test.make
    ~name:"pqueue list scheduler is bit-identical to the reference" ~count:150
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed ~max_ops:20 seed in
      let dep = Depgraph.of_dfg g in
      let deadline = max 1 (Depgraph.critical_length dep) in
      let priorities =
        [ List_sched.Path_length; List_sched.Urgency deadline;
          List_sched.Mobility deadline; List_sched.Fifo ]
      in
      List.for_all
        (fun limits ->
          List.for_all
            (fun priority ->
              List_sched.schedule_dep ~priority ~limits dep
              = List_sched.schedule_dep_reference ~priority ~limits dep)
            priorities)
        limits_choices)

let prop_bb_is_optimal =
  QCheck.Test.make ~name:"branch-and-bound never beaten" ~count:60
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed ~max_ops:9 seed in
      List.for_all
        (fun limits ->
          match Branch_bound.schedule ~limits g with
          | None -> true
          | Some bb ->
              List.for_all
                (fun (_, s) -> Schedule.n_steps bb <= Schedule.n_steps s)
                (all_schedulers limits g))
        [ Limits.Serial; Limits.Total 2 ])

let prop_unconstrained_asap_is_critical_path =
  QCheck.Test.make ~name:"unconstrained ASAP equals critical path" ~count:150
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      let dep = Depgraph.of_dfg g in
      Schedule.n_steps (Asap.unconstrained g) = max 1 (Depgraph.critical_length dep))

let prop_fds_respects_deadline =
  QCheck.Test.make ~name:"force-directed meets its deadline" ~count:80
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      let dep = Depgraph.of_dfg g in
      let deadline = max 1 (Depgraph.critical_length dep) + 1 in
      let s = Force_directed.schedule ~deadline g in
      Schedule.n_steps s <= deadline && Schedule.verify Limits.Unlimited s = Ok ())

let prop_fds_matches_reference =
  QCheck.Test.make
    ~name:"incremental force-directed kernel is step-for-step identical to the reference"
    ~count:120 Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed ~max_ops:24 seed in
      let dep = Depgraph.of_dfg g in
      let cl = max 1 (Depgraph.critical_length dep) in
      List.for_all
        (fun deadline ->
          let trace
              (kernel :
                ?on_fix:(int -> int -> unit) ->
                ?pins:(int * int) list ->
                deadline:int ->
                Depgraph.t ->
                int array) ~pins =
            let log = ref [] in
            let steps =
              kernel ~on_fix:(fun i s -> log := (i, s) :: !log) ~pins ~deadline dep
            in
            (steps, List.rev !log)
          in
          (* pin the lowest-index op at its ALAP frame top: a legal pin on
             every graph, and one that actually perturbs the priorities *)
          let alap = Depgraph.alap dep ~deadline in
          List.for_all
            (fun pins ->
              let s_inc, fixes_inc = trace Force_directed.schedule_dep ~pins in
              let s_ref, fixes_ref =
                trace Force_directed.schedule_dep_reference ~pins
              in
              s_inc = s_ref && fixes_inc = fixes_ref)
            [ []; [ (0, alap.(0)) ] ])
        [ cl; cl + 1; cl + 3 ])

let prop_freedom_valid =
  QCheck.Test.make ~name:"freedom-based valid at critical path" ~count:80
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      let s = Freedom.schedule g in
      Schedule.verify Limits.Unlimited s = Ok ())

let prop_serial_length_is_op_count =
  QCheck.Test.make ~name:"serial schedule length = op count" ~count:100
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      let s = List_sched.schedule ~limits:Limits.Serial g in
      Schedule.n_steps s = List.length (Dfg.compute_ops g))

(* ---- pipelined (modulo) scheduling — Sehwa ---- *)

let test_pipeline_modulo_legality () =
  let g = fig34_dfg () in
  (* 5 ops on 2 units cannot restart every 2 steps (2 slots x 2 = 4 < 5) *)
  Alcotest.(check bool) "ii=2 infeasible" true
    (Pipeline.schedule ~limits:limits2 ~ii:2 g = None);
  match Pipeline.schedule ~limits:limits2 ~ii:3 g with
  | None -> Alcotest.fail "ii=3 must be feasible"
  | Some r ->
      (* dependences still hold *)
      Alcotest.(check (result unit string)) "valid" (Ok ())
        (Schedule.verify Limits.Unlimited r.Pipeline.schedule);
      (* no modulo slot exceeds the limits *)
      List.iter
        (fun (_, counts) ->
          Alcotest.(check bool) "slot within limits" true
            (Limits.within limits2 ~counts))
        r.Pipeline.modulo_usage

let test_pipeline_min_ii_bound () =
  let g = fig34_dfg () in
  (* 5 ops on 2 units: at least ceil(5/2) = 3 between initiations *)
  Alcotest.(check int) "resource bound" 3 (Pipeline.resource_min_ii ~limits:limits2 g);
  let r = Pipeline.min_ii ~limits:limits2 g in
  Alcotest.(check int) "achieved" 3 r.Pipeline.ii

let test_pipeline_serial_ii_is_op_count () =
  let g = fig34_dfg () in
  let r = Pipeline.min_ii ~limits:Limits.Serial g in
  Alcotest.(check int) "serial ii = ops" 5 r.Pipeline.ii

let test_pipeline_throughput_monotone () =
  let g = fig34_dfg () in
  let rows = Pipeline.throughput_table ~limits:limits2 g in
  Alcotest.(check bool) "has rows" true (rows <> []);
  let total demand = List.fold_left (fun acc (_, k) -> acc + k) 0 demand in
  let rec decreasing = function
    | (_, _, d1) :: ((_, _, d2) :: _ as rest) ->
        total d1 > total d2 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "units strictly decrease with ii" true (decreasing rows)

let prop_pipeline_valid =
  QCheck.Test.make ~name:"modulo schedules are legal at min ii" ~count:80
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      let r = Pipeline.min_ii ~limits:(Limits.Total 2) g in
      Schedule.verify Limits.Unlimited r.Pipeline.schedule = Ok ()
      && List.for_all
           (fun (_, counts) -> Limits.within (Limits.Total 2) ~counts)
           r.Pipeline.modulo_usage)

(* ---- delay-aware chaining ---- *)

let test_chaining_long_period_packs () =
  let g = fig34_dfg () in
  (* a generous period chains whole dependence paths into few steps *)
  let wide = Chaining.schedule ~period_ns:500.0 ~limits:Limits.Unlimited g in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Chaining.verify wide);
  Alcotest.(check int) "everything chains into one step" 1 wide.Chaining.n_steps;
  (* a tight period breaks the mul->add chain: the critical path needs a
     second step (mul 60ns + add 18ns + overhead 4ns = 82 > 70) *)
  let tight = Chaining.schedule ~period_ns:70.0 ~limits:Limits.Unlimited g in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Chaining.verify tight);
  Alcotest.(check int) "chain split across two steps" 2 tight.Chaining.n_steps

let test_chaining_rejects_impossible_period () =
  let g = fig34_dfg () in
  Alcotest.(check bool) "too fast" true
    (try
       ignore (Chaining.schedule ~period_ns:10.0 ~limits:Limits.Unlimited g);
       false
     with Invalid_argument _ -> true)

let test_chaining_sweep_monotone () =
  let g = fig34_dfg () in
  let rows =
    Chaining.sweep ~limits:(Limits.Total 2)
      ~periods_ns:[ 70.0; 100.0; 150.0; 300.0; 600.0 ]
      g
  in
  Alcotest.(check bool) "has rows" true (List.length rows >= 3);
  (* longer periods never need more steps *)
  let rec non_increasing = function
    | (_, s1, _) :: ((_, s2, _) :: _ as rest) -> s1 >= s2 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "steps non-increasing in period" true (non_increasing rows)

let prop_chaining_valid =
  QCheck.Test.make ~name:"chained schedules verify" ~count:100 Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      List.for_all
        (fun period_ns ->
          List.for_all
            (fun limits ->
              let t = Chaining.schedule ~period_ns ~limits g in
              Chaining.verify ~limits t = Ok ())
            [ Limits.Unlimited; Limits.Total 2 ])
        [ 100.0; 250.0 ])

(* ---- 0/1 programming formulation (Hafer) ---- *)

let test_ilp_matches_bb () =
  let g = fig34_dfg () in
  match (Ilp_sched.schedule ~limits:limits2 g, Branch_bound.schedule ~limits:limits2 g) with
  | Some ilp, Some bb ->
      Alcotest.(check int) "same optimum" (Schedule.n_steps bb) (Schedule.n_steps ilp);
      Alcotest.(check (result unit string)) "valid" (Ok ()) (Schedule.verify limits2 ilp)
  | _ -> Alcotest.fail "both should solve"

let prop_ilp_optimal =
  QCheck.Test.make ~name:"0/1 formulation matches branch-and-bound" ~count:30
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed ~max_ops:7 seed in
      List.for_all
        (fun limits ->
          match (Ilp_sched.schedule ~limits g, Branch_bound.schedule ~limits g) with
          | Some ilp, Some bb ->
              Schedule.n_steps ilp = Schedule.n_steps bb
              && Schedule.verify limits ilp = Ok ()
          | _ -> false)
        [ Limits.Serial; Limits.Total 2 ])

(* ---- exact schedulers against their full-search oracles ---- *)

(* ILP starts its deadline search at Depgraph.lower_bound and B&B returns
   a list incumbent that meets it without searching; the oracles in
   test/reference/ probe every deadline from the critical length and
   always search. Schedules must be identical, and ILP must probe
   exactly the deadlines from the bound to its answer. B&B inputs stay
   at <= 10 ops and ILP's at <= 7 so the oracles terminate quickly. *)
let prop_exact_match_oracles =
  QCheck.Test.make ~name:"exact schedulers match their full-search oracles" ~count:60
    Gen.dfg_arbitrary
    (fun seed ->
      let bb_dep = Depgraph.of_dfg (Gen.dfg_of_seed ~max_ops:10 seed) in
      let ilp_dep = Depgraph.of_dfg (Gen.dfg_of_seed ~max_ops:7 seed) in
      List.for_all
        (fun limits ->
          let bb = Branch_bound.schedule_dep ~limits bb_dep in
          let probes0 = Hls_obs.Trace.counter "sched/ilp_deadlines" in
          let ilp = Ilp_sched.schedule_dep ~limits ilp_dep in
          let probes = Hls_obs.Trace.counter "sched/ilp_deadlines" - probes0 in
          bb = Some (Hls_reference.Exact_sched_reference.branch_bound ~limits bb_dep)
          && ilp = Some (Hls_reference.Exact_sched_reference.ilp ~limits ilp_dep)
          &&
          let len = Array.fold_left max 1 (Option.get ilp) in
          probes = len - Depgraph.lower_bound ~limits ilp_dep + 1)
        limits_choices)

let test_lower_bound () =
  let dep = Depgraph.of_dfg (fig34_dfg ()) in
  Alcotest.(check int) "critical length binds unlimited" (Depgraph.critical_length dep)
    (Depgraph.lower_bound ~limits:Limits.Unlimited dep);
  Alcotest.(check int) "serial: one op per step" (Depgraph.n_ops dep)
    (Depgraph.lower_bound ~limits:Limits.Serial dep);
  Alcotest.(check int) "resource bound equals the modulo bound"
    (Pipeline.resource_min_ii ~limits:limits2 (fig34_dfg ()))
    (Depgraph.resource_bound ~limits:limits2 dep)

let () =
  Alcotest.run "sched"
    [
      ( "figures",
        [
          Alcotest.test_case "Fig 3: ASAP blocks critical path" `Quick test_fig3_asap_suboptimal;
          Alcotest.test_case "Fig 4: list schedule optimal" `Quick test_fig4_list_optimal;
          Alcotest.test_case "Fig 4: B&B confirms optimum" `Quick test_fig4_bb_confirms;
          Alcotest.test_case "Fig 5: distribution graph" `Quick test_fig5_distribution;
          Alcotest.test_case "Fig 5: FDS balances" `Quick test_fig5_fds_balances;
          Alcotest.test_case "FDS rejects impossible deadline" `Quick test_fds_deadline_too_tight;
          Alcotest.test_case "Fig 2: 23 and 10 steps" `Quick test_fig2_lengths;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "freedom meets critical path" `Quick test_freedom_meets_critical_path;
          Alcotest.test_case "transformational legal" `Quick test_transformational_legal;
          Alcotest.test_case "serial compaction" `Quick test_serial_compaction_beats_serial;
          Alcotest.test_case "depgraph free-op chaining" `Quick test_depgraph_through_free_ops;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "modulo legality" `Quick test_pipeline_modulo_legality;
          Alcotest.test_case "min ii bound" `Quick test_pipeline_min_ii_bound;
          Alcotest.test_case "serial ii" `Quick test_pipeline_serial_ii_is_op_count;
          Alcotest.test_case "throughput curve" `Quick test_pipeline_throughput_monotone;
          QCheck_alcotest.to_alcotest prop_pipeline_valid;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "matches B&B" `Quick test_ilp_matches_bb;
          QCheck_alcotest.to_alcotest prop_ilp_optimal;
          Alcotest.test_case "lower bound" `Quick test_lower_bound;
          QCheck_alcotest.to_alcotest prop_exact_match_oracles;
        ] );
      ( "chaining",
        [
          Alcotest.test_case "period drives packing" `Quick test_chaining_long_period_packs;
          Alcotest.test_case "impossible period" `Quick test_chaining_rejects_impossible_period;
          Alcotest.test_case "sweep monotone" `Quick test_chaining_sweep_monotone;
          QCheck_alcotest.to_alcotest prop_chaining_valid;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_all_schedulers_valid;
          QCheck_alcotest.to_alcotest prop_list_sched_matches_reference;
          QCheck_alcotest.to_alcotest prop_bb_is_optimal;
          QCheck_alcotest.to_alcotest prop_unconstrained_asap_is_critical_path;
          QCheck_alcotest.to_alcotest prop_fds_respects_deadline;
          QCheck_alcotest.to_alcotest prop_fds_matches_reference;
          QCheck_alcotest.to_alcotest prop_freedom_valid;
          QCheck_alcotest.to_alcotest prop_serial_length_is_op_count;
        ] );
    ]
