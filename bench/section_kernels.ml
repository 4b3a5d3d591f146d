(* Per-kernel micro-benchmarks: the hot algorithms measured one by one
   instead of through the end-to-end flow.

     force_directed — incremental FDS vs the retained reference oracle
                      on a generated ~size-op DFG
     list_sched     — priority-queue list scheduler vs its reference
     exact_sched    — 0/1 programming and branch-and-bound vs their
                      full-search oracles (test/reference/), with one
                      pass's sched/ilp_deadlines, binprog/nodes and
                      bb/nodes per side
     clique         — bitset clique partitioning vs its reference
     qm             — Quine–McCluskey vs the level-by-level reference
                      (test/reference/) on a sparse pseudo-random
                      11-input function
     qm_ctrl        — Quine–McCluskey vs the level-by-level reference
                      (test/reference/) on a controller's next-state
                      logic: 5 state bits, 20 used codes, 3 conditions
     rtl_sim        — compiled simulation image vs the interpreting
                      reference on the sqrt and diffeq workloads
     beh_sim        — staged behavioral simulator vs the tree-walking
                      reference (test/reference/) on sqrt, gcd, diffeq
     cfg_sim        — staged CDFG simulator vs the interpreting
                      reference on the same three workloads
     cosim_frontier — Cosim.check_random over the frontier of the
                      default sweep of diffeq and gcd, reusing verdicts
                      vs on Marshal copies (one image per check), with
                      both sides' sim/images_compiled

   Every optimized/reference pair is compared for identical answers on
   every iteration; each pair is a gate, as are the sched/fd_ and sim/
   counters. Timings are medians over --iters runs; speedups are medians
   of per-iteration ratios so both sides of each ratio shared the same
   ambient load. *)

open Hls_lang
open Hls_sched
open Hls_util.Json

(* random but seed-deterministic DFG in the shape the schedulers see:
   a couple of reads, [n_ops] binary ops over earlier values, one write *)
let int_ty = Ast.Tint 16

let dfg_of_seed ~n_ops seed =
  let rng = Random.State.make [| seed |] in
  let g = Hls_cdfg.Dfg.create () in
  let a = Hls_cdfg.Dfg.add g (Hls_cdfg.Op.Read "a") [] int_ty in
  let b = Hls_cdfg.Dfg.add g (Hls_cdfg.Op.Read "b") [] int_ty in
  let values = ref [| a; b |] in
  let pick () = !values.(Random.State.int rng (Array.length !values)) in
  for _ = 1 to n_ops do
    let x = pick () and y = pick () in
    let op =
      match Random.State.int rng 5 with
      | 0 -> Hls_cdfg.Op.Add
      | 1 -> Hls_cdfg.Op.Sub
      | 2 -> Hls_cdfg.Op.Mul
      | 3 -> Hls_cdfg.Op.And
      | _ -> Hls_cdfg.Op.Xor
    in
    let nid = Hls_cdfg.Dfg.add g op [ x; y ] int_ty in
    values := Array.append !values [| nid |]
  done;
  ignore
    (Hls_cdfg.Dfg.add g (Hls_cdfg.Op.Write "out") [ !values.(Array.length !values - 1) ] int_ty);
  g

type pair = { ref_ms : float list; opt_ms : float list; identical : bool }

(* a reference/optimized pair timed back to back, answers compared *)
let bench_pair ~iters ~reference ~optimized =
  ignore (reference ());
  ignore (optimized ());
  let rec go k acc =
    if k = 0 then acc
    else
      let r, tr = Harness.time_ms reference in
      let o, topt = Harness.time_ms optimized in
      go (k - 1)
        { ref_ms = tr :: acc.ref_ms; opt_ms = topt :: acc.opt_ms; identical = acc.identical && r = o }
  in
  go iters { ref_ms = []; opt_ms = []; identical = true }

let speedup p = Harness.paired_ratio p.ref_ms p.opt_ms

let pair_json ?(extra = []) p =
  Obj
    (extra
    @ [ ("identical", Bool p.identical);
        ("reference_ms", Harness.runs_json p.ref_ms);
        ("optimized_ms", Harness.runs_json p.opt_ms);
        ("speedup", Num (speedup p)) ])

(* one kernel's report entry and its pairs, labelled by workload (""
   for a single pair) *)
type kernel = Hls_util.Json.t * (string * pair) list

let single ?extra p : kernel = (pair_json ?extra p, [ ("", p) ])

let force_directed ~iters ~size =
  let dep = Depgraph.of_dfg (dfg_of_seed ~n_ops:size 7) in
  let deadline = Depgraph.critical_length dep + 3 in
  single
    ~extra:[ ("n_ops", of_int (Depgraph.n_ops dep)); ("deadline", of_int deadline) ]
    (bench_pair ~iters
       ~reference:(fun () -> Force_directed.schedule_dep_reference ~deadline dep)
       ~optimized:(fun () -> Force_directed.schedule_dep ~deadline dep))

let list_sched ~iters ~size =
  let dep = Depgraph.of_dfg (dfg_of_seed ~n_ops:size 11) in
  let limits = Limits.Total 4 in
  single
    ~extra:[ ("n_ops", of_int (Depgraph.n_ops dep)) ]
    (bench_pair ~iters
       ~reference:(fun () -> List_sched.schedule_dep_reference ~limits dep)
       ~optimized:(fun () -> List_sched.schedule_dep ~limits dep))

(* The exact schedulers against their full-search oracles
   (test/reference/): 0/1 programming from the lower bound vs from the
   critical length, branch-and-bound with vs without the bound exit, on
   small seeded blocks under every limit shape. Besides the timings,
   one untimed pass per side records the deterministic work counters,
   so their drop is exact. *)
let exact_counters = [ "sched/ilp_deadlines"; "binprog/nodes"; "bb/nodes" ]

let exact_sched ~iters ~size:_ =
  let deps = List.init 12 (fun k -> Depgraph.of_dfg (dfg_of_seed ~n_ops:8 (100 + k))) in
  let limits =
    [ Limits.Serial; Limits.Total 2; Limits.Total 3;
      Limits.Classes [ (Hls_cdfg.Op.C_alu, 1); (Hls_cdfg.Op.C_mul, 1) ]; Limits.Unlimited ]
  in
  let all ilp bb () =
    List.concat_map (fun dep -> List.map (fun limits -> (ilp ~limits dep, bb ~limits dep)) limits) deps
  in
  let reference =
    all Hls_reference.Exact_sched_reference.ilp Hls_reference.Exact_sched_reference.branch_bound
  in
  let optimized =
    all
      (fun ~limits dep -> Option.get (Ilp_sched.schedule_dep ~limits dep))
      (fun ~limits dep -> Option.get (Branch_bound.schedule_dep ~limits dep))
  in
  let work f =
    let before = List.map Hls_obs.Trace.counter exact_counters in
    ignore (f ());
    Obj
      (List.map2
         (fun c b -> (c, of_int (Hls_obs.Trace.counter c - b)))
         exact_counters before)
  in
  let reference_work = work reference and optimized_work = work optimized in
  single
    ~extra:
      [ ("blocks", of_int (List.length deps));
        ("n_ops", of_int (Depgraph.n_ops (List.hd deps)));
        ("limits", of_int (List.length limits));
        ("reference_work", reference_work);
        ("optimized_work", optimized_work) ]
    (bench_pair ~iters ~reference ~optimized)

let clique ~iters ~size =
  let n = size in
  let rng = Random.State.make [| 23 |] in
  (* symmetric half-matrix of compatibility bits, ~45% density *)
  let compat = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let c = Random.State.int rng 100 < 45 in
      compat.(i).(j) <- c;
      compat.(j).(i) <- c
    done
  done;
  let compatible i j = compat.(i).(j) in
  single
    ~extra:[ ("n", of_int n) ]
    (bench_pair ~iters
       ~reference:(fun () -> Hls_reference.Clique_reference.partition ~n ~compatible)
       ~optimized:(fun () -> Hls_alloc.Clique.partition ~n ~compatible))

let qm ~iters ~size =
  let n_inputs = 11 in
  let space = 1 lsl n_inputs in
  let rng = Random.State.make [| 31 |] in
  (* disjoint pseudo-random on/dc sets sized with the benchmark *)
  let picked = Hashtbl.create (4 * size) in
  let rec pick_fresh () =
    let m = Random.State.int rng space in
    if Hashtbl.mem picked m then pick_fresh ()
    else begin
      Hashtbl.replace picked m ();
      m
    end
  in
  let on_set = List.init (min size (space / 4)) (fun _ -> pick_fresh ()) in
  let dc_set = List.init (min (size / 2) (space / 8)) (fun _ -> pick_fresh ()) in
  single
    ~extra:
      [ ("n_inputs", of_int n_inputs);
        ("on_set", of_int (List.length on_set));
        ("dc_set", of_int (List.length dc_set)) ]
    (bench_pair ~iters
       ~reference:(fun () -> Hls_reference.Qm_reference.minimize ~n_inputs ~on_set ~dc_set ())
       ~optimized:(fun () -> Hls_ctrl.Qm.minimize ~n_inputs ~on_set ~dc_set ()))

(* A controller's next-state logic in the shape Ctrl_synth hands QM:
   binary state bits below the condition bits, every minterm of an
   unused state code a don't-care, and each used state going to one of
   two seeded successors on one seeded condition. One run minimizes all
   the next-state bits, [reps] times. *)
let qm_ctrl ~iters ~size =
  let state_bits = 5 and used_codes = 20 and conds = 3 in
  let n_inputs = state_bits + conds in
  let reps = max 1 (size / 10) in
  let rng = Random.State.make [| 37 |] in
  let moves =
    Array.init used_codes (fun _ ->
        let cond = Random.State.int rng conds in
        let taken = Random.State.int rng used_codes in
        (cond, taken, Random.State.int rng used_codes))
  in
  let on = Array.make state_bits [] and dc = ref [] in
  for x = (1 lsl n_inputs) - 1 downto 0 do
    let code = x land ((1 lsl state_bits) - 1) in
    if code >= used_codes then dc := x :: !dc
    else begin
      let cond, taken, otherwise = moves.(code) in
      let target = if x land (1 lsl (state_bits + cond)) <> 0 then taken else otherwise in
      for k = 0 to state_bits - 1 do
        if target land (1 lsl k) <> 0 then on.(k) <- x :: on.(k)
      done
    end
  done;
  let dc_set = !dc in
  let next_state minimize =
    for _ = 1 to reps - 1 do
      ignore (Array.map minimize on)
    done;
    Array.map minimize on
  in
  single
    ~extra:
      [ ("n_inputs", of_int n_inputs);
        ("used_codes", of_int used_codes);
        ("dc_set", of_int (List.length dc_set));
        ("reps", of_int reps) ]
    (bench_pair ~iters
       ~reference:(fun () ->
         next_state (fun on_set -> Hls_reference.Qm_reference.minimize ~n_inputs ~on_set ~dc_set ()))
       ~optimized:(fun () ->
         next_state (fun on_set -> Hls_ctrl.Qm.minimize ~n_inputs ~on_set ~dc_set ())))

let diffeq_inputs =
  [ ("x_in", 0); ("y_in", 1 lsl 16); ("u_in", 1 lsl 16); ("dx", 1 lsl 12); ("a", 1 lsl 18) ]

let per_workload one workloads : kernel =
  let results = List.map one workloads in
  ( Obj (List.map (fun (name, json, _) -> (name, json)) results),
    List.map (fun (name, _, p) -> (name, p)) results )

let rtl_sim ~iters ~size =
  let open Hls_core in
  let reps = max 1 (size / 10) in
  let one (name, src, inputs) =
    let dp = (Flow.synthesize src).Flow.datapath in
    let image = Hls_sim.Rtl_sim.compile dp in
    let cycles = ref 0 in
    let run_ref () =
      let c = ref 0 in
      for _ = 1 to reps do
        let r = Hls_reference.Rtl_reference.run dp ~inputs in
        c := !c + r.Hls_sim.Rtl_sim.cycles
      done;
      cycles := !c / reps;
      (Hls_reference.Rtl_reference.run dp ~inputs).Hls_sim.Rtl_sim.finals
    in
    let run_cmp () =
      for _ = 1 to reps do
        ignore (Hls_sim.Rtl_sim.run_image image ~inputs)
      done;
      (Hls_sim.Rtl_sim.run_image image ~inputs).Hls_sim.Rtl_sim.finals
    in
    let p = bench_pair ~iters ~reference:run_ref ~optimized:run_cmp in
    let cps ms = float_of_int (!cycles * reps) /. (1e-3 *. Harness.median ms) in
    ( name,
      pair_json
        ~extra:
          [ ("cycles_per_run", of_int !cycles);
            ("sim_reps", of_int reps);
            ("reference_cycles_per_sec", Num (cps p.ref_ms));
            ("compiled_cycles_per_sec", Num (cps p.opt_ms)) ]
        p,
      p )
  in
  per_workload one
    [ ("sqrt", Workloads.sqrt_newton, [ ("x", 1 lsl 22) ]); ("diffeq", Workloads.diffeq, diffeq_inputs) ]

(* Staged vs reference for the behavioral and CDFG levels. The staged
   side pays its compile inside every timed iteration, once per [reps]
   runs — the way co-simulation uses it (one image per design and
   batch) — so the speedup is net of staging. *)
let level ~iters ~size ~subject ~reference ~compile ~run_image =
  let reps = max 1 (size / 10) in
  let one (name, src, inputs) =
    let x = subject src in
    let repeat f =
      for _ = 1 to reps - 1 do
        ignore (f ())
      done;
      f ()
    in
    let p =
      bench_pair ~iters
        ~reference:(fun () -> repeat (fun () -> reference x ~inputs))
        ~optimized:(fun () ->
          let img = compile x in
          repeat (fun () -> run_image img ~inputs))
    in
    (name, pair_json ~extra:[ ("sim_reps", of_int reps) ] p, p)
  in
  per_workload one
    [ ("sqrt", Hls_core.Workloads.sqrt_newton, [ ("x", 1 lsl 22) ]);
      ("gcd", Hls_core.Workloads.gcd, [ ("a_in", 1071); ("b_in", 462) ]);
      ("diffeq", Hls_core.Workloads.diffeq, diffeq_inputs) ]

let beh_sim ~iters ~size =
  level ~iters ~size
    ~subject:(fun src -> Typecheck.check (Parser.parse src))
    ~reference:(fun p ~inputs -> Hls_reference.Beh_reference.run p ~inputs)
    ~compile:Hls_sim.Beh_sim.compile
    ~run_image:(fun img ~inputs -> Hls_sim.Beh_sim.run_image img ~inputs)

let cfg_sim ~iters ~size =
  level ~iters ~size
    ~subject:(fun src ->
      (Hls_core.Flow.cosim_design (Hls_core.Flow.synthesize src)).Hls_sim.Cosim.d_cfg)
    ~reference:(fun cfg ~inputs -> Hls_reference.Cfg_reference.run cfg ~inputs)
    ~compile:Hls_sim.Cfg_sim.compile
    ~run_image:(fun img ~inputs -> Hls_sim.Cfg_sim.run_image img ~inputs)

(* Co-simulation of a sweep's frontier with verdict reuse vs on Marshal
   copies, which are physically fresh and so always simulate. Tied
   frontier points of one backend class share one physical design, so
   the reuse side compiles one image per distinct design. One untimed
   pass per side, on designs no check has seen, records the exact
   image counts before the timed pairs. *)
let cosim_frontier ~iters ~size:_ =
  let open Hls_core in
  let runs = 8 in
  let one (name, src) =
    let designs =
      List.map
        (fun (p : Explore.point) -> Flow.cosim_design p.Explore.design)
        (Explore.pareto (Explore.sweep src))
    in
    let same (a : Hls_sim.Cosim.design) (b : Hls_sim.Cosim.design) =
      a.d_prog == b.d_prog && a.d_cfg == b.d_cfg && a.d_datapath == b.d_datapath
      && a.d_controller == b.d_controller
    in
    let distinct =
      List.length
        (List.fold_left (fun seen d -> if List.exists (same d) seen then seen else d :: seen) [] designs)
    in
    let copy (d : Hls_sim.Cosim.design) : Hls_sim.Cosim.design =
      Marshal.from_string (Marshal.to_string d []) 0
    in
    let check_all ds = List.map (Hls_sim.Cosim.check_random ~runs) ds in
    let images f =
      let c0 = Hls_obs.Trace.counter "sim/images_compiled" in
      let verdicts = f () in
      (verdicts, Hls_obs.Trace.counter "sim/images_compiled" - c0)
    in
    let reused_verdicts, reused_images = images (fun () -> check_all designs) in
    let copy_verdicts, copy_images = images (fun () -> check_all (List.map copy designs)) in
    (* fresh copies for every timed reference iteration (and the warm-up),
       made outside the timings *)
    let copy_sets = ref (List.init (iters + 1) (fun _ -> List.map copy designs)) in
    let reference () =
      match !copy_sets with
      | ds :: rest ->
          copy_sets := rest;
          check_all ds
      | [] -> assert false
    in
    let p = bench_pair ~iters ~reference ~optimized:(fun () -> check_all designs) in
    let p = { p with identical = p.identical && reused_verdicts = copy_verdicts } in
    ( name,
      pair_json
        ~extra:
          [ ("checks", of_int (List.length designs));
            ("distinct_designs", of_int distinct);
            ("runs", of_int runs);
            ("images_compiled_reused", of_int reused_images);
            ("images_compiled_copies", of_int copy_images);
            ("all_ok", Bool (List.for_all Result.is_ok reused_verdicts)) ]
        p,
      p )
  in
  per_workload one [ ("diffeq", Workloads.diffeq); ("gcd", Workloads.gcd) ]

let run get =
  let iters = get "iters" and size = get "size" in
  let kernels =
    List.map
      (fun (name, k) -> (name, k ~iters ~size))
      [ ("force_directed", force_directed);
        ("list_sched", list_sched);
        ("exact_sched", exact_sched);
        ("clique", clique);
        ("qm", qm);
        ("qm_ctrl", qm_ctrl);
        ("rtl_sim", rtl_sim);
        ("beh_sim", beh_sim);
        ("cfg_sim", cfg_sim);
        ("cosim_frontier", cosim_frontier) ]
  in
  let pairs =
    List.concat_map
      (fun (name, (_, ps)) ->
        List.map (fun (wl, p) -> ((if wl = "" then name else name ^ "." ^ wl), p)) ps)
      kernels
  in
  (* the exact schedulers never do more search work than their oracles *)
  let exact_work_drops c =
    let work side = Option.bind (member side (fst (List.assoc "exact_sched" kernels))) (int_member c) in
    match (work "optimized_work", work "reference_work") with
    | Some o, Some r -> o <= r
    | _ -> false
  in
  (* reuse compiles one image per distinct design; copies one per check *)
  let images_per_distinct_design wl =
    let field k = Option.bind (member wl (fst (List.assoc "cosim_frontier" kernels))) (int_member k) in
    match
      (field "images_compiled_reused", field "distinct_designs",
       field "images_compiled_copies", field "checks")
    with
    | Some r, Some d, Some c, Some n -> r = d && c = n
    | _ -> false
  in
  List.iter
    (fun (label, p) ->
      Printf.printf "  %-16s %6.2fx%s\n" label (speedup p)
        (if p.identical then "" else "  DIFFERS FROM REFERENCE"))
    pairs;
  {
    Harness.body = [ ("kernels", Obj (List.map (fun (name, (json, _)) -> (name, json)) kernels)) ];
    gates =
      List.map (fun (label, p) -> (label ^ " identical", p.identical)) pairs
      @ [ Harness.counters_gate "sched/fd_"; Harness.counters_gate "sim/" ]
      @ List.map (fun c -> (c ^ " optimized <= reference", exact_work_drops c)) exact_counters
      @ List.map
          (fun wl ->
            ( "cosim_frontier." ^ wl ^ " images_compiled = distinct designs",
              images_per_distinct_design wl ))
          [ "diffeq"; "gcd" ];
  }

let section =
  {
    Harness.name = "kernels";
    benchmark = "kernels";
    settings = [ ("iters", 5); ("size", 200) ];
    deterministic = false;
    run;
  }
