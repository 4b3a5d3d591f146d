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

(* An exact kernel (None past its size cap) as a block schedule. *)
let exact kernel g =
  let dep = Depgraph.of_dfg g in
  Option.map (fun steps -> Depgraph.to_schedule dep ~steps) (kernel dep)

let test_fig3_asap_suboptimal () =
  let g = fig34_dfg () in
  let s = Depgraph.block (Asap.schedule_dep ~limits:limits2) g in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Schedule.verify limits2 s);
  Alcotest.(check int) "ASAP needs 4 steps" 4 (Schedule.n_steps s)

let test_fig4_list_optimal () =
  let g = fig34_dfg () in
  let s = Depgraph.block (List_sched.schedule_dep ~limits:limits2) g in
  Alcotest.(check (result unit string)) "valid" (Ok ()) (Schedule.verify limits2 s);
  Alcotest.(check int) "list needs 3 steps" 3 (Schedule.n_steps s)

let test_fig4_bb_confirms () =
  let g = fig34_dfg () in
  match exact (Branch_bound.schedule_dep ~limits:limits2) g with
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
  let s = Depgraph.block (Force_directed.schedule_dep ~deadline:3) g in
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
       ignore (Depgraph.block (Force_directed.schedule_dep ~deadline:2) g);
       false
     with Invalid_argument _ -> true)

(* ---- Fig 2: whole-program schedule lengths ---- *)

let test_fig2_lengths () =
  let _, cfg = Compile.compile_source Hls_core.Workloads.sqrt_newton in
  let cs = Gen.schedule_cfg (List_sched.schedule_dep ~limits:Limits.serial) cfg in
  Alcotest.(check int) "serial unoptimized = 23" 23 (Cfg_sched.compute_steps cs);
  let _, cfg2 = Compile.compile_source Hls_core.Workloads.sqrt_newton in
  let cfg2 =
    Hls_transform.Passes.run_pipeline ~outputs:[ "y" ]
      (Hls_transform.Passes.standard @ [ Hls_transform.Passes.find_exn "loop-recode" ])
      cfg2
  in
  let cs2 = Gen.schedule_cfg (List_sched.schedule_dep ~limits:Limits.two_fu) cfg2 in
  Alcotest.(check int) "two FUs optimized = 10" 10 (Cfg_sched.compute_steps cs2);
  Alcotest.(check (result unit string)) "valid" (Ok ())
    (Cfg_sched.verify Limits.two_fu cs2)

(* ---- freedom-based ---- *)

let test_freedom_meets_critical_path () =
  let g = fig34_dfg () in
  let dep = Depgraph.of_dfg g in
  let s = Depgraph.block Freedom.schedule_dep g in
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
      ("from parallel", Depgraph.block (Transformational.from_parallel_dep ~limits:limits2) g);
      ("from serial", Depgraph.block (Transformational.from_serial_dep ~limits:limits2) g);
    ]

let test_serial_compaction_beats_serial () =
  let g = fig34_dfg () in
  let s = Depgraph.block (Transformational.from_serial_dep ~limits:limits2) g in
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

let test_depgraph_pinned_frames () =
  (* Fig 3/4 graph, deadline 4: x1, x2 free; chain c1 -> c2 -> c3 *)
  let dep = Depgraph.of_dfg (fig34_dfg ()) in
  let n = Depgraph.n_ops dep in
  let c1 = 2 and c3 = 4 in
  Alcotest.(check (list string)) "op classes" [ "alu"; "alu"; "mul"; "alu"; "alu" ]
    (List.init n (fun i -> Op.fu_class_to_string (Depgraph.cls dep i)));
  let frames pins =
    let fixed = Array.make n None in
    List.iter (fun (i, s) -> fixed.(i) <- Some s) pins;
    Depgraph.frames dep ~deadline:4 ~fixed
  in
  let check name (asap, alap) (asap', alap') =
    Alcotest.(check (array int)) (name ^ ": asap") asap asap';
    Alcotest.(check (array int)) (name ^ ": alap") alap alap'
  in
  check "nothing fixed is asap/alap"
    (Depgraph.asap dep, Depgraph.alap dep ~deadline:4)
    (frames []);
  check "unpinned" ([| 1; 1; 1; 2; 3 |], [| 4; 4; 2; 3; 4 |]) (frames []);
  (* c1 at its latest step leaves the rest of the chain no slack *)
  check "c1 pinned at 2" ([| 1; 1; 2; 3; 4 |], [| 4; 4; 2; 3; 4 |]) (frames [ (c1, 2) ]);
  (* a pin that squeezes c2 out: its frame comes out empty *)
  let asap, alap = frames [ (c3, 2) ] in
  Alcotest.(check (pair int int)) "c2 frame empty under c3 at 2" (2, 1) (asap.(3), alap.(3));
  Alcotest.(check bool) "alap keeps its deadline check" true
    (try
       ignore (Depgraph.alap dep ~deadline:2);
       false
     with Invalid_argument _ -> true)

(* ---- step occupancy against the assoc-list semantics ---- *)

let all_classes = [ Op.C_alu; Op.C_mul; Op.C_div; Op.C_shift; Op.C_free; Op.C_none ]

let prop_occupancy_matches_counts =
  QCheck.Test.make ~name:"occupancy answers what can_add/within answer on counts"
    ~count:300 QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let steps = 5 in
      (* the tallies schedulers used to build: one assoc list per step *)
      let counts = Array.make steps [] in
      let occ = Limits.occupancy () in
      for _ = 1 to Random.State.int rng 25 do
        let step = Random.State.int rng steps and cls = pick all_classes in
        let cur = Option.value (List.assoc_opt cls counts.(step)) ~default:0 in
        if cur > 0 && Random.State.int rng 4 = 0 then begin
          counts.(step) <-
            (if cur = 1 then List.remove_assoc cls counts.(step)
             else (cls, cur - 1) :: List.remove_assoc cls counts.(step));
          Limits.vacate occ ~step cls
        end
        else begin
          counts.(step) <- (cls, cur + 1) :: List.remove_assoc cls counts.(step);
          Limits.occupy occ ~step cls
        end
      done;
      let caps () =
        List.init (Random.State.int rng 4) (fun _ -> (pick all_classes, Random.State.int rng 4))
      in
      let shapes =
        [ Limits.Serial; Limits.Unlimited ]
        @ List.init 4 (fun k -> Limits.Total k)
        @ List.init 6 (fun _ -> Limits.Classes (caps ()))
      in
      List.for_all
        (fun limits ->
          List.for_all
            (fun step ->
              let counts = if step < steps then counts.(step) else [] in
              Limits.step_within limits occ ~step = Limits.within limits ~counts
              && Limits.step_counts occ ~step = List.sort compare counts
              && List.for_all
                   (fun cls ->
                     Limits.fits limits occ ~step cls = Limits.can_add limits ~counts cls)
                   all_classes)
            (List.init (steps + 2) Fun.id))
        shapes)

(* ---- properties over random DAGs ---- *)

let limits_choices =
  [ Limits.Serial; Limits.Total 2; Limits.Total 3;
    Limits.Classes [ (Op.C_alu, 1); (Op.C_mul, 1) ]; Limits.Unlimited ]

let all_schedulers limits g =
  [
    ("asap", Depgraph.block (Asap.schedule_dep ~limits) g);
    ("list/path", Depgraph.block (List_sched.schedule_dep ~limits) g);
    ("list/mobility",
     Depgraph.block (List_sched.schedule_dep ~priority:(List_sched.Mobility 100) ~limits) g);
    ("list/urgency",
     Depgraph.block (List_sched.schedule_dep ~priority:(List_sched.Urgency 100) ~limits) g);
    ("list/fifo", Depgraph.block (List_sched.schedule_dep ~priority:List_sched.Fifo ~limits) g);
    ("trans/par", Depgraph.block (Transformational.from_parallel_dep ~limits) g);
    ("trans/ser", Depgraph.block (Transformational.from_serial_dep ~limits) g);
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
          match exact (Branch_bound.schedule_dep ~limits) g with
          | None -> true
          | Some bb ->
              List.for_all
                (fun (_, s) -> Schedule.n_steps bb <= Schedule.n_steps s)
                (all_schedulers limits g))
        [ Limits.Serial; Limits.Total 2 ])

(* The audit behind the block memo: a cap at least the operations it
   constrains changes no kernel's placement, nor the 0/1 search's node
   count. *)
let prop_kernels_ignore_slack_caps =
  QCheck.Test.make ~name:"kernels schedule under the binding limits alone" ~count:80
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed ~max_ops:9 seed in
      let dep = Depgraph.of_dfg g in
      let n = Depgraph.n_ops dep in
      let kernels limits =
        [
          Asap.schedule_dep ~limits dep;
          List_sched.schedule_dep ~limits dep;
          List_sched.schedule_dep ~priority:(List_sched.Mobility (max 1 n)) ~limits dep;
          Transformational.from_parallel_dep ~limits dep;
          Transformational.from_serial_dep ~limits dep;
          Option.value ~default:[||] (Branch_bound.schedule_dep ~limits dep);
        ]
      in
      let ilp limits =
        let before = Hls_obs.Trace.counter "binprog/nodes" in
        let steps = Ilp_sched.schedule_dep ~limits dep in
        (steps, Hls_obs.Trace.counter "binprog/nodes" - before)
      in
      List.for_all
        (fun limits ->
          let binding = Depgraph.binding_limits ~limits dep in
          kernels limits = kernels binding && ilp limits = ilp binding)
        [
          Limits.Serial; Limits.Total 1; Limits.Total (max 1 (n - 1)); Limits.Total n;
          Limits.Total (n + 3);
          Limits.Classes [ (Op.C_alu, n); (Op.C_mul, 1) ];
          Limits.Classes [ (Op.C_alu, 1); (Op.C_mul, n); (Op.C_div, 1) ];
          Limits.Classes [ (Op.C_div, 1); (Op.C_shift, 2) ];
          Limits.Classes [ (Op.C_alu, n); (Op.C_alu, 1) ];
          Limits.Classes [ (Op.C_alu, 1) ]; Limits.Classes [ (Op.C_alu, 2) ];
        ])

let test_binding_limits () =
  let g = fig34_dfg () in
  let dep = Depgraph.of_dfg g in
  let n = Depgraph.n_ops dep in
  let show l = Limits.to_string (Depgraph.binding_limits ~limits:l dep) in
  Alcotest.(check string) "total at the op count" "unlimited" (show (Limits.Total n));
  Alcotest.(check string) "total below it" "2 FUs" (show (Limits.Total 2));
  Alcotest.(check string) "serial" "serial" (show Limits.Serial);
  Alcotest.(check string) "caps on absent classes" "unlimited"
    (show (Limits.Classes [ (Op.C_div, 1); (Op.C_shift, 1) ]));
  Alcotest.(check string) "a class's caps go together" "1 alu, 9 alu"
    (show (Limits.Classes [ (Op.C_div, 1); (Op.C_alu, 1); (Op.C_alu, 9) ]));
  Alcotest.(check string) "a slack cap dropped" "1 alu"
    (show (Limits.Classes [ (Op.C_alu, 1); (Op.C_mul, 1) ]));
  (* three adds: a cap on their one class is a total, one unit is serial *)
  let adds = Dfg.create () in
  let a = Dfg.add adds (Op.Read "a") [] i16 in
  let s1 = Dfg.add adds Op.Add [ a; a ] i16 in
  let s2 = Dfg.add adds Op.Add [ s1; a ] i16 in
  ignore (Dfg.add adds (Op.Write "o") [ Dfg.add adds Op.Add [ s2; a ] i16 ] i16);
  let dep = Depgraph.of_dfg adds in
  let show l = Limits.to_string (Depgraph.binding_limits ~limits:l dep) in
  Alcotest.(check string) "one class capped" "2 FUs"
    (show (Limits.Classes [ (Op.C_alu, 2); (Op.C_mul, 1) ]));
  Alcotest.(check string) "one unit" "serial" (show (Limits.Classes [ (Op.C_alu, 1) ]));
  Alcotest.(check string) "one general unit" "serial" (show (Limits.Total 1))

let prop_unconstrained_asap_is_critical_path =
  QCheck.Test.make ~name:"unconstrained ASAP equals critical path" ~count:150
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      let dep = Depgraph.of_dfg g in
      let s = Depgraph.block (Asap.schedule_dep ~limits:Limits.Unlimited) g in
      Schedule.n_steps s = max 1 (Depgraph.critical_length dep))

let prop_fds_respects_deadline =
  QCheck.Test.make ~name:"force-directed meets its deadline" ~count:80
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      let dep = Depgraph.of_dfg g in
      let deadline = max 1 (Depgraph.critical_length dep) + 1 in
      let s = Depgraph.block (Force_directed.schedule_dep ~deadline) g in
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
      let s = Depgraph.block Freedom.schedule_dep g in
      Schedule.verify Limits.Unlimited s = Ok ())

let prop_serial_length_is_op_count =
  QCheck.Test.make ~name:"serial schedule length = op count" ~count:100
    Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      let s = Depgraph.block (List_sched.schedule_dep ~limits:Limits.Serial) g in
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
  let rows = Pipeline.throughput_table g in
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
  match
    ( exact (Ilp_sched.schedule_dep ~limits:limits2) g,
      exact (Branch_bound.schedule_dep ~limits:limits2) g )
  with
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
          match
            (exact (Ilp_sched.schedule_dep ~limits) g, exact (Branch_bound.schedule_dep ~limits) g)
          with
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

(* ---- golden schedule digests ---- *)

(* Canonical text of a whole-program schedule: per block, every
   step-occupying node as id@step, then the block's step count. Text,
   not Marshal bytes, so the digest pins the step assignment alone. *)
let schedule_text cs =
  let cfg = Cfg_sched.cfg cs in
  let b = Buffer.create 256 in
  List.iter
    (fun bid ->
      let s = Cfg_sched.block_schedule cs bid in
      Buffer.add_string b (Printf.sprintf "b%d:" bid);
      List.iter
        (fun nid -> Buffer.add_string b (Printf.sprintf " %d@%d" nid (Schedule.step_of s nid)))
        (Dfg.compute_ops (Cfg.dfg cfg bid));
      Buffer.add_string b (Printf.sprintf " /%d\n" (Schedule.n_steps s)))
    (Cfg.block_ids cfg);
  Buffer.contents b

(* The default sweep's eight schedulers plus force-directed at the
   critical path, each under the five default limits. *)
let golden_schedulers = Hls_core.Explore.default_schedulers @ [ Hls_core.Flow.Force_directed 0 ]

(* biquad3's flat block is past what branch-and-bound and 0/1
   programming finish on: it gets every polynomial scheduler *)
let polynomial_schedulers =
  List.filter
    (fun s -> s <> Hls_core.Flow.Branch_bound && s <> Hls_core.Flow.Ilp_exact)
    golden_schedulers

let add_cross b ~schedulers optimized =
  let open Hls_core in
  List.iter
    (fun scheduler ->
      List.iter
        (fun limits ->
          let options = { Flow.default_options with Flow.scheduler; limits } in
          Buffer.add_string b
            (Printf.sprintf "%s %s\n" (Flow.scheduler_to_string scheduler)
               (Limits.to_string limits));
          Buffer.add_string b (schedule_text (Flow.schedule options optimized)))
        Explore.default_limits)
    schedulers

let optimized_of compiled =
  let o = Hls_core.Flow.default_options in
  Hls_core.Flow.midend ~passes:o.Hls_core.Flow.passes
    ~if_conversion:o.Hls_core.Flow.if_conversion compiled

(* Captured before the scheduler layer was consolidated onto one home
   for time frames and step occupancy; any change to a placement by any
   scheduler on any of these inputs changes a digest. *)
let golden_workload_digests =
  [
    ("sqrt", "780e4b664c33155a85b4af42939786a1");
    ("diffeq", "79b299fab73f4d24bc080cc02d65dd69");
    ("fir8", "30eb672564a0d9e28c6c8a7c105184d7");
    ("gcd", "726325c7d6417444ca8b5851a55298b9");
    ("biquad3", "bdce0a57650664150fc60e463dbb81a3");
    ("twophase", "35f4bf70e792b78e0f696b0c04c9ada0");
  ]

let golden_random_digest = "bf17a94deebf4afcfb6ffb0941a4947e"

let test_golden_workloads () =
  List.iter
    (fun (name, src) ->
      let b = Buffer.create 4096 in
      let schedulers = if name = "biquad3" then polynomial_schedulers else golden_schedulers in
      add_cross b ~schedulers (optimized_of (Hls_core.Flow.frontend src));
      Alcotest.(check string)
        (name ^ " schedule digest")
        (List.assoc name golden_workload_digests)
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    Hls_core.Workloads.all

let test_golden_random_programs () =
  let b = Buffer.create 65536 in
  for seed = 0 to 199 do
    Buffer.add_string b (Printf.sprintf "seed %d\n" seed);
    add_cross b ~schedulers:Hls_core.Explore.default_schedulers
      (optimized_of (Hls_core.Flow.frontend_program (Gen.program_of_seed seed)))
  done;
  Alcotest.(check string) "seeds 0-199 schedule digest" golden_random_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

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
          Alcotest.test_case "binding limits" `Quick test_binding_limits;
          Alcotest.test_case "transformational legal" `Quick test_transformational_legal;
          Alcotest.test_case "serial compaction" `Quick test_serial_compaction_beats_serial;
          Alcotest.test_case "depgraph free-op chaining" `Quick test_depgraph_through_free_ops;
          Alcotest.test_case "depgraph pinned frames" `Quick test_depgraph_pinned_frames;
          QCheck_alcotest.to_alcotest prop_occupancy_matches_counts;
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
          QCheck_alcotest.to_alcotest prop_kernels_ignore_slack_caps;
          QCheck_alcotest.to_alcotest prop_fds_respects_deadline;
          QCheck_alcotest.to_alcotest prop_fds_matches_reference;
          QCheck_alcotest.to_alcotest prop_freedom_valid;
          QCheck_alcotest.to_alcotest prop_serial_length_is_op_count;
        ] );
      ( "golden",
        [
          Alcotest.test_case "paper workloads x 9 schedulers x 5 limits" `Quick
            test_golden_workloads;
          Alcotest.test_case "random programs x default cross" `Quick
            test_golden_random_programs;
        ] );
    ]
