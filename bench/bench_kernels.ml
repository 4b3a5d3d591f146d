(* Per-kernel micro-benchmarks: the hot algorithms measured one by one
   instead of through the end-to-end flow.

     force_directed — incremental FDS vs the retained reference oracle
                      on a generated ~size-op DFG
     list_sched     — priority-queue list scheduler vs its reference
     clique         — bitset clique partitioning vs its reference
     qm             — Quine–McCluskey on a pseudo-random function
                      (absolute medians only)
     qm_ctrl        — Quine–McCluskey vs the level-by-level reference
                      (test/reference/) on a controller's next-state
                      logic: 5 state bits, 20 used codes, 3 conditions
     rtl_sim        — compiled simulation image vs the interpreting
                      reference on the sqrt and diffeq workloads
     beh_sim        — staged behavioral simulator vs the tree-walking
                      reference (test/reference/) on sqrt, gcd, diffeq
     cfg_sim        — staged CDFG simulator vs the interpreting
                      reference on the same three workloads

   Optimized/reference pairs are checked for identical answers on every
   iteration before any time is reported (the PR-1 oracle convention).
   Timings are medians over --iters runs; speedups are medians of
   per-iteration ratios so both sides of each ratio shared the same
   ambient load. Results land in BENCH_kernels.json with the same shape
   discipline as BENCH_dse.json; --validate reparses an emitted file
   and checks the shape, which is what the @bench-smoke alias runs. *)

open Hls_lang
open Hls_sched

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, 1e3 *. (Unix.gettimeofday () -. t0))

let median xs =
  let a = List.sort compare xs in
  List.nth a (List.length a / 2)

let runs_obj xs =
  Hls_util.Json.Obj
    [ ("median", Hls_util.Json.Num (median xs));
      ("runs", Hls_util.Json.Arr (List.map (fun x -> Hls_util.Json.Num x) xs)) ]

let paired_speedup ref_ms opt_ms = median (List.map2 ( /. ) ref_ms opt_ms)

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
    (Hls_cdfg.Dfg.add g (Hls_cdfg.Op.Write "out")
       [ !values.(Array.length !values - 1) ]
       int_ty);
  g

(* a reference/optimized pair timed back to back, answers compared *)
let bench_pair ~iters ~check_equal ~reference ~optimized =
  let ref_ms = ref [] and opt_ms = ref [] in
  let identical = ref true in
  ignore (reference ());
  ignore (optimized ());
  for _ = 1 to iters do
    let r, tr = timed reference in
    let o, topt = timed optimized in
    if not (check_equal r o) then identical := false;
    ref_ms := tr :: !ref_ms;
    opt_ms := topt :: !opt_ms
  done;
  (!ref_ms, !opt_ms, !identical)

let pair_json ?(extra = []) (ref_ms, opt_ms, identical) =
  let open Hls_util.Json in
  Obj
    (extra
    @ [ ("identical", Bool identical);
        ("reference_ms", runs_obj ref_ms);
        ("optimized_ms", runs_obj opt_ms);
        ("speedup", Num (paired_speedup ref_ms opt_ms)) ])

let bench_force_directed ~iters ~size =
  let dep = Depgraph.of_dfg (dfg_of_seed ~n_ops:size 7) in
  let deadline = Depgraph.critical_length dep + 3 in
  let pair =
    bench_pair ~iters ~check_equal:( = )
      ~reference:(fun () -> Force_directed.schedule_dep_reference ~deadline dep)
      ~optimized:(fun () -> Force_directed.schedule_dep ~deadline dep)
  in
  let open Hls_util.Json in
  pair_json
    ~extra:
      [ ("n_ops", Num (float_of_int (Depgraph.n_ops dep)));
        ("deadline", Num (float_of_int deadline)) ]
    pair

let bench_list_sched ~iters ~size =
  let dep = Depgraph.of_dfg (dfg_of_seed ~n_ops:size 11) in
  let limits = Limits.Total 4 in
  let pair =
    bench_pair ~iters ~check_equal:( = )
      ~reference:(fun () -> List_sched.schedule_dep_reference ~limits dep)
      ~optimized:(fun () -> List_sched.schedule_dep ~limits dep)
  in
  let open Hls_util.Json in
  pair_json ~extra:[ ("n_ops", Num (float_of_int (Depgraph.n_ops dep))) ] pair

let bench_clique ~iters ~size =
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
  let pair =
    bench_pair ~iters ~check_equal:( = )
      ~reference:(fun () -> Hls_reference.Clique_reference.partition ~n ~compatible)
      ~optimized:(fun () -> Hls_alloc.Clique.partition ~n ~compatible)
  in
  let open Hls_util.Json in
  pair_json ~extra:[ ("n", Num (float_of_int n)) ] pair

let bench_qm ~iters ~size =
  let n_inputs = 11 in
  let space = 1 lsl n_inputs in
  let rng = Random.State.make [| 31 |] in
  (* disjoint pseudo-random on/dc sets sized with the benchmark *)
  let picked = Hashtbl.create (4 * size) in
  let pick_fresh () =
    let rec go () =
      let m = Random.State.int rng space in
      if Hashtbl.mem picked m then go ()
      else begin
        Hashtbl.replace picked m ();
        m
      end
    in
    go ()
  in
  let on_set = List.init (min size (space / 4)) (fun _ -> pick_fresh ()) in
  let dc_set = List.init (min (size / 2) (space / 8)) (fun _ -> pick_fresh ()) in
  let ms = ref [] in
  ignore (Hls_ctrl.Qm.minimize ~n_inputs ~on_set ~dc_set ());
  for _ = 1 to iters do
    let _, t = timed (fun () -> Hls_ctrl.Qm.minimize ~n_inputs ~on_set ~dc_set ()) in
    ms := t :: !ms
  done;
  let open Hls_util.Json in
  Obj
    [ ("n_inputs", Num (float_of_int n_inputs));
      ("on_set", Num (float_of_int (List.length on_set)));
      ("dc_set", Num (float_of_int (List.length dc_set)));
      ("minimize_ms", runs_obj !ms) ]

(* A controller's next-state logic in the shape Ctrl_synth hands QM:
   binary state bits below the condition bits, every minterm of an
   unused state code a don't-care, and each used state going to one of
   two seeded successors on one seeded condition. One run minimizes all
   the next-state bits, [reps] times. *)
let bench_qm_ctrl ~iters ~size =
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
  let pair =
    bench_pair ~iters ~check_equal:( = )
      ~reference:(fun () ->
        next_state (fun on_set ->
            Hls_reference.Qm_reference.minimize ~n_inputs ~on_set ~dc_set ()))
      ~optimized:(fun () ->
        next_state (fun on_set -> Hls_ctrl.Qm.minimize ~n_inputs ~on_set ~dc_set ()))
  in
  let open Hls_util.Json in
  pair_json
    ~extra:
      [ ("n_inputs", Num (float_of_int n_inputs));
        ("used_codes", Num (float_of_int used_codes));
        ("dc_set", Num (float_of_int (List.length dc_set)));
        ("reps", Num (float_of_int reps)) ]
    pair

let bench_rtl_sim ~iters ~size =
  let open Hls_core in
  let reps = max 1 (size / 10) in
  let one (name, src, inputs) =
    let dp = (Flow.synthesize src).Flow.datapath in
    let image = Hls_sim.Rtl_sim.compile dp in
    let cycles = ref 0 in
    let run_ref () =
      let c = ref 0 in
      for _ = 1 to reps do
        let r = Hls_sim.Rtl_sim.run_reference dp ~inputs in
        c := !c + r.Hls_sim.Rtl_sim.cycles
      done;
      cycles := !c / reps;
      (Hls_sim.Rtl_sim.run_reference dp ~inputs).Hls_sim.Rtl_sim.finals
    in
    let run_cmp () =
      for _ = 1 to reps do
        ignore (Hls_sim.Rtl_sim.run_image image ~inputs)
      done;
      (Hls_sim.Rtl_sim.run_image image ~inputs).Hls_sim.Rtl_sim.finals
    in
    let ((ref_ms, opt_ms, _) as pair) =
      bench_pair ~iters ~check_equal:( = ) ~reference:run_ref ~optimized:run_cmp
    in
    let cps ms = float_of_int (!cycles * reps) /. (1e-3 *. median ms) in
    let open Hls_util.Json in
    ( name,
      pair_json
        ~extra:
          [ ("cycles_per_run", Num (float_of_int !cycles));
            ("sim_reps", Num (float_of_int reps));
            ("reference_cycles_per_sec", Num (cps ref_ms));
            ("compiled_cycles_per_sec", Num (cps opt_ms)) ]
        pair )
  in
  Hls_util.Json.Obj
    (List.map one
       [ ("sqrt", Workloads.sqrt_newton, [ ("x", 1 lsl 22) ]);
         ( "diffeq",
           Workloads.diffeq,
           [ ("x_in", 0); ("y_in", 1 lsl 16); ("u_in", 1 lsl 16);
             ("dx", 1 lsl 12); ("a", 1 lsl 18) ] );
       ])

(* Staged vs reference for the behavioral and CDFG levels. The staged
   side pays its compile inside every timed iteration, once per [reps]
   runs — the way co-simulation uses it (one image per design and
   batch) — so the speedup is net of staging. *)
let sim_workloads =
  let open Hls_core in
  [ ("sqrt", Workloads.sqrt_newton, [ ("x", 1 lsl 22) ]);
    ("gcd", Workloads.gcd, [ ("a_in", 1071); ("b_in", 462) ]);
    ( "diffeq",
      Workloads.diffeq,
      [ ("x_in", 0); ("y_in", 1 lsl 16); ("u_in", 1 lsl 16); ("dx", 1 lsl 12);
        ("a", 1 lsl 18) ] );
  ]

let bench_level ~iters ~size ~subject ~reference ~compile ~run_image =
  let reps = max 1 (size / 10) in
  let one (name, src, inputs) =
    let x = subject src in
    let repeat f =
      for _ = 1 to reps - 1 do
        ignore (f ())
      done;
      f ()
    in
    let pair =
      bench_pair ~iters ~check_equal:( = )
        ~reference:(fun () -> repeat (fun () -> reference x ~inputs))
        ~optimized:(fun () ->
          let img = compile x in
          repeat (fun () -> run_image img ~inputs))
    in
    let open Hls_util.Json in
    (name, pair_json ~extra:[ ("sim_reps", Num (float_of_int reps)) ] pair)
  in
  Hls_util.Json.Obj (List.map one sim_workloads)

let bench_beh_sim ~iters ~size =
  bench_level ~iters ~size
    ~subject:(fun src -> Typecheck.check (Parser.parse src))
    ~reference:(fun p ~inputs -> Hls_reference.Beh_reference.run p ~inputs)
    ~compile:Hls_sim.Beh_sim.compile
    ~run_image:(fun img ~inputs -> Hls_sim.Beh_sim.run_image img ~inputs)

let bench_cfg_sim ~iters ~size =
  bench_level ~iters ~size
    ~subject:(fun src ->
      (Hls_core.Flow.cosim_design (Hls_core.Flow.synthesize src)).Hls_sim.Cosim.d_cfg)
    ~reference:(fun cfg ~inputs -> Hls_reference.Cfg_reference.run cfg ~inputs)
    ~compile:Hls_sim.Cfg_sim.compile
    ~run_image:(fun img ~inputs -> Hls_sim.Cfg_sim.run_image img ~inputs)

let run_bench ~iters ~size ~out =
  let open Hls_util.Json in
  Hls_obs.Trace.reset ();
  let kernels =
    [ ("force_directed", bench_force_directed ~iters ~size);
      ("list_sched", bench_list_sched ~iters ~size);
      ("clique", bench_clique ~iters ~size);
      ("qm", bench_qm ~iters ~size);
      ("qm_ctrl", bench_qm_ctrl ~iters ~size);
      ("rtl_sim", bench_rtl_sim ~iters ~size);
      ("beh_sim", bench_beh_sim ~iters ~size);
      ("cfg_sim", bench_cfg_sim ~iters ~size);
    ]
  in
  let json =
    Obj
      [ ("benchmark", Str "kernels");
        ("host_cores", Num (float_of_int (Domain.recommended_domain_count ())));
        ( "pool_cap",
          Num (float_of_int (max 0 (Domain.recommended_domain_count () - 1))) );
        ("iters", Num (float_of_int iters));
        ("size", Num (float_of_int size));
        ("kernels", Obj kernels);
        (* work counters accumulated across all kernels above: the
           sched/fd_* incremental-scheduler totals, sim/* compiled-run
           totals, ctrl/qm_iterations, alloc merges, ... *)
        ("counters", Hls_core.Metrics.counters_json ());
      ]
  in
  let oc = open_out out in
  output_string oc (to_string json);
  close_out oc;
  let speedup name =
    match member "kernels" json with
    | Some k -> (
        match member name k with
        | Some obj -> (
            match member "speedup" obj with Some (Num s) -> s | _ -> nan)
        | None -> nan)
    | None -> nan
  in
  let sim kernel name =
    match member "kernels" json with
    | Some k -> (
        match member kernel k with
        | Some r -> (
            match member name r with
            | Some obj -> (
                match member "speedup" obj with Some (Num s) -> s | _ -> nan)
            | None -> nan)
        | None -> nan)
    | None -> nan
  in
  Printf.printf
    "%s: fds %.2fx, list_sched %.2fx, clique %.2fx, qm_ctrl %.2fx, \
     rtl_sim sqrt %.2fx / diffeq %.2fx, beh_sim %.2fx / %.2fx / %.2fx, \
     cfg_sim %.2fx / %.2fx / %.2fx (sqrt / gcd / diffeq)\n"
    out (speedup "force_directed") (speedup "list_sched") (speedup "clique")
    (speedup "qm_ctrl")
    (sim "rtl_sim" "sqrt") (sim "rtl_sim" "diffeq") (sim "beh_sim" "sqrt")
    (sim "beh_sim" "gcd") (sim "beh_sim" "diffeq") (sim "cfg_sim" "sqrt")
    (sim "cfg_sim" "gcd") (sim "cfg_sim" "diffeq");
  let all_identical =
    List.for_all
      (fun (_, obj) ->
        match Hls_util.Json.member "identical" obj with
        | Some (Bool b) -> b
        | _ -> true)
      kernels
    && List.for_all
         (fun kernel ->
           match member "kernels" json with
           | Some k -> (
               match member kernel k with
               | Some (Obj workloads) ->
                   List.for_all
                     (fun (_, w) ->
                       match member "identical" w with Some (Bool b) -> b | _ -> false)
                     workloads
               | _ -> false)
           | None -> false)
         [ "rtl_sim"; "beh_sim"; "cfg_sim" ]
  in
  if not all_identical then begin
    Printf.eprintf "error: an optimized kernel disagreed with its reference\n";
    exit 1
  end

let validate file =
  let open Hls_util.Json in
  let ic =
    try open_in file
    with Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match parse text with
  | Error e ->
      Printf.eprintf "%s: JSON parse error: %s\n" file e;
      exit 1
  | Ok json ->
      let fail msg =
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
      in
      let num_in obj key ctx =
        match member key obj with
        | Some (Num v) -> v
        | _ -> fail (Printf.sprintf "%s: missing numeric field %S" ctx key)
      in
      List.iter (fun key -> ignore (num_in json key "top level")) [ "iters"; "size" ];
      let kernels =
        match member "kernels" json with
        | Some (Obj _ as k) -> k
        | _ -> fail "missing kernels object"
      in
      let check_pair ctx obj =
        (match member "identical" obj with
        | Some (Bool true) -> ()
        | Some (Bool false) -> fail (ctx ^ ": identical is false")
        | _ -> fail (ctx ^ ": missing identical"));
        if num_in obj "speedup" ctx <= 0.0 then fail (ctx ^ ": nonpositive speedup");
        List.iter
          (fun side ->
            match member side obj with
            | Some runs -> ignore (num_in runs "median" (ctx ^ "." ^ side))
            | None -> fail (Printf.sprintf "%s: missing %s" ctx side))
          [ "reference_ms"; "optimized_ms" ]
      in
      List.iter
        (fun name ->
          match member name kernels with
          | Some obj -> check_pair name obj
          | None -> fail (Printf.sprintf "missing kernel %S" name))
        [ "force_directed"; "list_sched"; "clique"; "qm_ctrl" ];
      (match member "qm" kernels with
      | Some obj -> (
          match member "minimize_ms" obj with
          | Some runs -> ignore (num_in runs "median" "qm.minimize_ms")
          | None -> fail "qm: missing minimize_ms")
      | None -> fail "missing kernel \"qm\"");
      (match member "rtl_sim" kernels with
      | Some sim ->
          List.iter
            (fun wl ->
              match member wl sim with
              | Some obj ->
                  check_pair ("rtl_sim." ^ wl) obj;
                  ignore (num_in obj "compiled_cycles_per_sec" ("rtl_sim." ^ wl))
              | None -> fail (Printf.sprintf "rtl_sim: missing workload %S" wl))
            [ "sqrt"; "diffeq" ]
      | None -> fail "missing kernel \"rtl_sim\"");
      List.iter
        (fun kernel ->
          match member kernel kernels with
          | Some sim ->
              List.iter
                (fun wl ->
                  match member wl sim with
                  | Some obj -> check_pair (kernel ^ "." ^ wl) obj
                  | None -> fail (Printf.sprintf "%s: missing workload %S" kernel wl))
                [ "sqrt"; "gcd"; "diffeq" ]
          | None -> fail (Printf.sprintf "missing kernel %S" kernel))
        [ "beh_sim"; "cfg_sim" ];
      (match member "counters" json with
      | Some (Obj counters) ->
          List.iter
            (fun prefix ->
              let len = String.length prefix in
              if
                not
                  (List.exists
                     (fun (k, _) -> String.length k > len && String.sub k 0 len = prefix)
                     counters)
              then fail (Printf.sprintf "counters object has no %s entries" prefix))
            [ "sched/fd_"; "sim/" ]
      | _ -> fail "missing counters object");
      Printf.printf "%s: valid (%.0f iters, size %.0f)\n" file
        (match member "iters" json with Some (Num v) -> v | _ -> 0.0)
        (match member "size" json with Some (Num v) -> v | _ -> 0.0)

let () =
  let iters = ref 5 and size = ref 200 and out = ref "BENCH_kernels.json" in
  let validate_file = ref None in
  let spec =
    [ ("--iters", Arg.Set_int iters, "N  timed iterations per kernel (default 5)");
      ("--size", Arg.Set_int size, "N  problem size: DFG ops, clique nodes, set sizes (default 200)");
      ("--out", Arg.Set_string out, "FILE  output path (default BENCH_kernels.json)");
      ( "--validate",
        Arg.String (fun f -> validate_file := Some f),
        "FILE  reparse an emitted result file and check its shape" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench_kernels";
  match !validate_file with
  | Some f -> validate f
  | None -> run_bench ~iters:!iters ~size:!size ~out:!out
