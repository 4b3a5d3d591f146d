(* Experiment harness: regenerates every figure of the tutorial and the
   survey-style comparative experiments, printing the paper's stated
   value next to the measured one. Kernel timings are `bench.exe
   kernels` (BENCH_kernels.json). See DESIGN.md §4 for the experiment
   index and EXPERIMENTS.md for the recorded results. *)

open Hls_util
open Hls_lang
open Hls_cdfg
open Hls_sched
open Hls_core

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

let i16 = Ast.Tint 16

(* Every block of a CFG through one scheduler kernel. *)
let schedule_cfg kernel cfg =
  Cfg_sched.init cfg (fun bid -> Depgraph.block kernel (Cfg.dfg cfg bid))

(* An exact kernel (None past its size cap) as a block schedule. *)
let exact kernel g =
  let dep = Depgraph.of_dfg g in
  Option.map (fun steps -> Depgraph.to_schedule dep ~steps) (kernel dep)

(* ------------------------------------------------------------------ *)
(* FIG1: specification and CDFG of the sqrt example                    *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "FIG 1 — high-level specification and CDFG for sqrt(X) (Newton)";
  let _prog, cfg = Compile.compile_source Workloads.sqrt_newton in
  print_string "behavioral specification (BSL):\n";
  print_string Workloads.sqrt_newton;
  Printf.printf "\ncompiled control/data-flow graph:\n";
  Format.printf "%a@." Cfg.pp cfg;
  let t = Table.create ~headers:[ "block"; "ops"; "compute ops"; "trip count" ] in
  Cfg.iter
    (fun bid b ->
      Table.add_row t
        [
          b.Cfg.label;
          string_of_int (Dfg.n_nodes b.Cfg.dfg);
          string_of_int (List.length (Dfg.compute_ops b.Cfg.dfg));
          (match Cfg.trip_count cfg bid with Some n -> string_of_int n | None -> "-");
        ])
    cfg;
  Table.print t;
  print_string
    "paper: data-flow + control-flow graphs; loop executes 4 iterations; the\n\
     I+1 operation is independent of the Y chain (parallel-schedulable).\n"

(* ------------------------------------------------------------------ *)
(* FIG2: optimization + schedule lengths (23 vs 10)                    *)
(* ------------------------------------------------------------------ *)

let sqrt_optimized_cfg () =
  let _p, cfg = Compile.compile_source Workloads.sqrt_newton in
  Hls_transform.Passes.run_pipeline ~outputs:[ "y" ]
    (Hls_transform.Passes.standard @ [ Hls_transform.Passes.find_exn "loop-recode" ])
    cfg

let steps_of cfg limits =
  Cfg_sched.compute_steps (schedule_cfg (List_sched.schedule_dep ~limits) cfg)

let fig2 () =
  section "FIG 2 — optimized control graph and schedule (sqrt)";
  let raw = snd (Compile.compile_source Workloads.sqrt_newton) in
  let opt = sqrt_optimized_cfg () in
  Printf.printf "optimized loop body (x0.5 -> shift, counter recoded to int<2>,\n";
  Printf.printf "exit test -> free zero-detect):\n";
  Format.printf "%a@." Cfg.pp opt;
  let t =
    Table.create ~headers:[ "configuration"; "paper"; "measured"; "formula" ]
  in
  Table.add_row t
    [ "unoptimized, 1 FU (serial)"; "23"; string_of_int (steps_of raw Limits.Serial);
      "3 + 4*5" ];
  Table.add_row t
    [ "optimized, 2 FUs"; "10"; string_of_int (steps_of opt Limits.two_fu); "2 + 4*2" ];
  let unrolled =
    Hls_transform.Passes.run_spec (List.assoc "aggressive" Hls_transform.Passes.named_pipelines) ~outputs:[ "y" ]
      (snd (Compile.compile_source Workloads.sqrt_newton))
  in
  Table.add_row t
    [ "fully unrolled, 2 FUs"; "(n/a)"; string_of_int (steps_of unrolled Limits.two_fu);
      "straight-line" ];
  Table.print t;
  let cs = schedule_cfg (List_sched.schedule_dep ~limits:Limits.two_fu) opt in
  Printf.printf "\ntwo-FU schedule detail (free ops marked ~):\n";
  Format.printf "%a@." Cfg_sched.pp cs

(* ------------------------------------------------------------------ *)
(* FIG3/4: ASAP vs list scheduling                                     *)
(* ------------------------------------------------------------------ *)

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

let fig34 () =
  section "FIG 3/4 — ASAP blocks the critical path; list scheduling fixes it";
  let g = fig34_dfg () in
  let limits = Limits.Total 2 in
  let asap = Depgraph.block (Asap.schedule_dep ~limits) g in
  let list_s = Depgraph.block (List_sched.schedule_dep ~limits) g in
  let bb =
    match exact (Branch_bound.schedule_dep ~limits) g with
    | Some s -> s
    | None -> list_s
  in
  Printf.printf "graph: two independent ops precede a 3-op critical chain; 2 FUs\n\n";
  Printf.printf "ASAP schedule (Fig 3):\n";
  Format.printf "%a" Schedule.pp asap;
  Printf.printf "\nlist schedule, path-length priority (Fig 4):\n";
  Format.printf "%a@." Schedule.pp list_s;
  let t = Table.create ~headers:[ "scheduler"; "paper"; "measured steps" ] in
  Table.add_row t [ "ASAP (Fig 3)"; "longer than optimal (4)"; string_of_int (Schedule.n_steps asap) ];
  Table.add_row t [ "list / path priority (Fig 4)"; "optimal (3)"; string_of_int (Schedule.n_steps list_s) ];
  Table.add_row t [ "branch & bound (exact)"; "3"; string_of_int (Schedule.n_steps bb) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* FIG5: force-directed distribution graph                             *)
(* ------------------------------------------------------------------ *)

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

let fig5 () =
  section "FIG 5 — force-directed scheduling: distribution graph";
  let g, a3 = fig5_dfg () in
  let dep = Depgraph.of_dfg g in
  let asap = Depgraph.asap dep in
  let alap = Depgraph.alap dep ~deadline:3 in
  let dg = Force_directed.distribution dep ~asap ~alap ~cls:Op.C_alu ~deadline:3 in
  let t = Table.create ~headers:[ "step"; "paper add-class DG"; "measured" ] in
  Array.iteri
    (fun i v ->
      Table.add_row t
        [
          string_of_int (i + 1);
          List.nth [ "1.0"; "1.5 (1 + 1/2)"; "0.5 (1/2)" ] i;
          Printf.sprintf "%.2f" v;
        ])
    dg;
  Table.print t;
  let s = Depgraph.block (Force_directed.schedule_dep ~deadline:3) g in
  Printf.printf "\nFDS places a3 into step %d (paper: step 3, 'the greatest effect\n"
    (Schedule.step_of s a3);
  Printf.printf "in balancing the graph'); resulting distribution is flat.\n";
  let after = Force_directed.distribution dep ~asap:(Array.map (fun _ -> 0) asap) ~alap in
  ignore after;
  let req = Schedule.fu_requirement s in
  Printf.printf "functional units implied: %s\n"
    (String.concat ", "
       (List.map (fun (c, n) -> Printf.sprintf "%d %s" n (Op.fu_class_to_string c)) req))

(* ------------------------------------------------------------------ *)
(* FIG6/7: greedy vs clique data-path allocation                       *)
(* ------------------------------------------------------------------ *)

let fig67_design () =
  let g = Dfg.create () in
  let x = Dfg.add g (Op.Read "x") [] i16 in
  let y = Dfg.add g (Op.Read "y") [] i16 in
  let z = Dfg.add g (Op.Read "z") [] i16 in
  let w = Dfg.add g (Op.Read "w") [] i16 in
  let v = Dfg.add g (Op.Read "v") [] i16 in
  let a1 = Dfg.add g Op.Add [ x; y ] i16 in
  let b1 = Dfg.add g Op.Add [ z; w ] i16 in
  let a2 = Dfg.add g Op.Add [ z; v ] i16 in
  let a3 = Dfg.add g Op.Add [ a2; z ] i16 in
  ignore (Dfg.add g (Op.Write "o1") [ a1 ] i16);
  ignore (Dfg.add g (Op.Write "o2") [ b1 ] i16);
  ignore (Dfg.add g (Op.Write "o3") [ a3 ] i16);
  let cfg = Cfg.create () in
  let bid = Cfg.add_block cfg g Cfg.Halt in
  Cfg.set_entry cfg bid;
  let steps = [ (a1, 1); (b1, 1); (a2, 2); (a3, 3) ] in
  Cfg_sched.init cfg (fun bid ->
      Schedule.make (Cfg.dfg cfg bid) ~steps:(fun nid -> List.assoc nid steps))

let fig67 () =
  section "FIG 6/7 — data-path allocation: greedy (local, cost-aware) vs clique";
  Printf.printf
    "example: four additions over three steps (a1,b1 concurrent in step 1)\n\n";
  let cs = fig67_design () in
  let variants =
    [
      ("greedy / min-mux (Fig 6)", Hls_alloc.Fu_alloc.greedy ~selection:`Min_mux cs);
      ("greedy / first-fit", Hls_alloc.Fu_alloc.greedy ~selection:`First_fit cs);
      ("clique partitioning (Fig 7)", Hls_alloc.Fu_alloc.by_clique cs);
    ]
  in
  let t = Table.create ~headers:[ "allocator"; "adders"; "extra mux inputs" ] in
  List.iter
    (fun (name, alloc) ->
      Table.add_row t
        [
          name;
          string_of_int (Hls_alloc.Fu_alloc.n_units alloc);
          string_of_int (Hls_alloc.Fu_alloc.mux_inputs cs alloc);
        ])
    variants;
  Table.print t;
  Printf.printf
    "\npaper: cost-aware local selection avoids needless multiplexing ('a2 was\n\
     assigned to adder2 since the increase in multiplexing cost required by\n\
     that allocation was zero'); the clique cover shares one adder among\n\
     three mutually compatible operations, two adders total.\n";
  List.iter
    (fun (name, alloc) ->
      Printf.printf "\n%s binding:\n" name;
      Format.printf "%a" Hls_alloc.Fu_alloc.pp alloc)
    variants

(* ------------------------------------------------------------------ *)
(* EXP-SCHED: scheduler comparison on the workloads                    *)
(* ------------------------------------------------------------------ *)

let block_for_sched src ~tree_height =
  (* largest block of the standard-optimized program *)
  let _p, cfg = Compile.compile_source src in
  let prog = Typecheck.check (Inline.expand (Parser.parse src)) in
  let outputs = Flow.output_names prog in
  let cfg = Hls_transform.Passes.run_spec Hls_transform.Passes.default_pipeline ~outputs cfg in
  if tree_height then ignore (Hls_transform.Rules.run_rules [ Hls_transform.Rules.add_rebalance ] cfg);
  List.fold_left
    (fun best bid ->
      let g = Cfg.dfg cfg bid in
      match best with
      | Some g' when Dfg.n_nodes g' >= Dfg.n_nodes g -> best
      | _ -> Some g)
    None (Cfg.block_ids cfg)
  |> Option.get

let sched_compare () =
  section "EXP-SCHED — scheduler quality comparison (survey, section 3.1)";
  let workloads =
    [
      ("fir8 (tree-reduced)", block_for_sched Workloads.fir8 ~tree_height:true);
      ("biquad3 (EWF-style)", block_for_sched Workloads.biquad3 ~tree_height:false);
      ("diffeq body", block_for_sched Workloads.diffeq ~tree_height:false);
    ]
  in
  List.iter
    (fun (name, g) ->
      let dep = Depgraph.of_dfg g in
      let cl = max 1 (Depgraph.critical_length dep) in
      Printf.printf "\n%s: %d ops, critical path %d\n" name
        (List.length (Dfg.compute_ops g))
        cl;
      let t =
        Table.create
          ~headers:[ "scheduler"; "constraint"; "steps"; "FU requirement" ]
      in
      let fu_str s =
        Schedule.fu_requirement s
        |> List.map (fun (c, n) -> Printf.sprintf "%d %s" n (Op.fu_class_to_string c))
        |> String.concat ", "
      in
      let add name constraint_ s =
        Table.add_row t [ name; constraint_; string_of_int (Schedule.n_steps s); fu_str s ]
      in
      let limits = Limits.Total 2 in
      add "ASAP" "2 FUs" (Depgraph.block (Asap.schedule_dep ~limits) g);
      add "list / path" "2 FUs" (Depgraph.block (List_sched.schedule_dep ~limits) g);
      add "list / mobility" "2 FUs"
        (Depgraph.block
           (List_sched.schedule_dep ~priority:(List_sched.Mobility (cl + 2)) ~limits)
           g);
      (match exact (Branch_bound.schedule_dep ~limits) g with
      | Some s -> add "branch & bound" "2 FUs" s
      | None -> Table.add_row t [ "branch & bound"; "2 FUs"; "(too large)"; "" ]);
      add "transformational / parallel" "2 FUs"
        (Depgraph.block (Transformational.from_parallel_dep ~limits) g);
      add "transformational / serial" "2 FUs"
        (Depgraph.block (Transformational.from_serial_dep ~limits) g);
      add "force-directed (HAL)" (Printf.sprintf "time = %d" cl)
        (Depgraph.block (Force_directed.schedule_dep ~deadline:cl) g);
      add "freedom-based (MAHA)" (Printf.sprintf "time = %d" cl)
        (Depgraph.block Freedom.schedule_dep g);
      Table.print t)
    workloads;
  Printf.printf
    "\nshape check: list/B&B <= ASAP under resource limits; FDS and MAHA\n\
     minimize units at the time constraint (the paper's qualitative claims).\n"

(* ------------------------------------------------------------------ *)
(* EXP-REG: register allocation comparison                             *)
(* ------------------------------------------------------------------ *)

let reg_compare () =
  section "EXP-REG — storage allocation (REAL's left edge; lifetime sharing)";
  let t =
    Table.create
      ~headers:
        [ "workload"; "temp regs (left edge)"; "= max overlap?"; "var regs shared";
          "var regs unshared" ]
  in
  List.iter
    (fun (name, src) ->
      let d = Flow.synthesize src in
      let cs = d.Flow.sched in
      let cfg = Cfg_sched.cfg cs in
      (* optimality: left-edge track count equals max simultaneous live *)
      let lt = Hls_alloc.Lifetime.table cs in
      let optimal =
        List.for_all
          (fun bid ->
            let temps = Hls_alloc.Lifetime.temps (Hls_alloc.Lifetime.values lt bid) in
            let _, tracks = Hls_alloc.Left_edge.assign temps in
            tracks = Interval.max_overlap (List.map snd temps))
          (Cfg.block_ids cfg)
      in
      let ports = List.map (fun (n, _, _) -> n) (Flow.ports_of d.Flow.prog) in
      let outputs = Flow.output_names d.Flow.prog in
      let unshared = Hls_alloc.Reg_alloc.run ~share_variables:false ~ports ~outputs cs in
      Table.add_row t
        [
          name;
          string_of_int (Hls_alloc.Reg_alloc.n_temp_registers d.Flow.regs);
          (if optimal then "yes" else "NO");
          string_of_int (Hls_alloc.Reg_alloc.n_variable_registers d.Flow.regs);
          string_of_int (Hls_alloc.Reg_alloc.n_variable_registers unshared);
        ])
    Workloads.all;
  Table.print t;
  Printf.printf
    "\npaper: 'values may be assigned to the same register when their\n\
     lifetimes do not overlap'; left edge achieves the max-overlap bound.\n"

(* ------------------------------------------------------------------ *)
(* EXP-CTRL: control styles                                            *)
(* ------------------------------------------------------------------ *)

let ctrl_compare () =
  section "EXP-CTRL — control synthesis styles (random logic / PLA / microcode)";
  List.iter
    (fun (name, src) ->
      let d = Flow.synthesize src in
      let fsm = d.Flow.datapath.Hls_rtl.Datapath.fsm in
      Printf.printf "\n%s: %d states\n" name (Hls_ctrl.Fsm.n_states fsm);
      let t =
        Table.create
          ~headers:
            [ "encoding"; "ffs"; "literals (QM)"; "literals (direct)"; "PLA rows";
              "PLA area" ]
      in
      List.iter
        (fun style ->
          let c = Hls_ctrl.Ctrl_synth.synthesize ~style fsm in
          let rows = Hls_ctrl.Ctrl_synth.pla_rows c in
          Table.add_row t
            [
              Hls_ctrl.Encoding.style_to_string style;
              string_of_int (Hls_ctrl.Ctrl_synth.n_state_bits c);
              string_of_int (Hls_ctrl.Ctrl_synth.literal_cost c);
              string_of_int (Hls_ctrl.Ctrl_synth.direct_literal_cost c);
              string_of_int rows;
              string_of_int (Hls_ctrl.Ctrl_synth.pla_cost c ~rows);
            ])
        [ Hls_ctrl.Encoding.Binary; Hls_ctrl.Encoding.Gray; Hls_ctrl.Encoding.One_hot ];
      Table.print t;
      (* microcode: one word per state; fields = register enables + op select *)
      let fields, words = Flow.microcode_image d in
      let mc = Hls_ctrl.Microcode.make ~fields ~words in
      Format.printf "%a" Hls_ctrl.Microcode.pp mc)
    [ ("sqrt", Workloads.sqrt_newton); ("gcd", Workloads.gcd); ("diffeq", Workloads.diffeq) ]

(* ------------------------------------------------------------------ *)
(* EXP-BUS: mux- vs bus-based interconnect (ablation)                  *)
(* ------------------------------------------------------------------ *)

let interconnect_compare () =
  section "EXP-BUS — interconnect: point-to-point multiplexers vs buses";
  let t =
    Table.create ~headers:[ "workload"; "transfers"; "mux inputs"; "buses (clique)" ]
  in
  List.iter
    (fun (name, src) ->
      let d = Flow.synthesize src in
      let ts = d.Flow.transfers in
      let _, buses = Hls_alloc.Interconnect.bus_allocation ts in
      Table.add_row t
        [
          name;
          string_of_int (List.length ts);
          string_of_int (Hls_alloc.Interconnect.mux_cost ts);
          string_of_int buses;
        ])
    Workloads.all;
  Table.print t;
  Printf.printf
    "\npaper: 'buses ... offer the advantage of requiring less wiring, but\n\
     they may be slower than multiplexers. Depending on the application, a\n\
     combination of both may be the best solution.'\n"

(* ------------------------------------------------------------------ *)
(* EXP-CHAIN: clock period vs operator chaining                        *)
(* ------------------------------------------------------------------ *)

let chaining_compare () =
  section "EXP-CHAIN — clock period vs operator chaining (delays are real)";
  List.iter
    (fun (name, tree_height) ->
      let g = block_for_sched (Workloads.find name) ~tree_height in
      Printf.printf "\n%s (dependence-bound; unconstrained units):\n" name;
      let t =
        Table.create
          ~headers:[ "clock period (ns)"; "control steps"; "latency (ns)" ]
      in
      let rows =
        Chaining.sweep ~limits:Limits.Unlimited
          ~periods_ns:[ 70.0; 85.0; 100.0; 125.0; 150.0; 200.0; 300.0; 500.0 ]
          g
      in
      List.iter
        (fun (p, steps, lat) ->
          Table.add_row t
            [ Printf.sprintf "%.0f" p; string_of_int steps; Printf.sprintf "%.0f" lat ])
        rows;
      Table.print t;
      match
        List.sort (fun (_, _, a) (_, _, b) -> compare a b) rows
      with
      | (best_p, best_s, best_l) :: _ ->
          Printf.printf "best latency: %.0f ns at a %.0f ns clock (%d steps)\n" best_l
            best_p best_s
      | [] -> ())
    [ ("fir8", true); ("diffeq", false) ];
  Printf.printf
    "\npaper: schedules depend on real operator delays; slow clocks waste\n\
     time on short chains, fast clocks forbid chaining ('too many\n\
     operations chained together in the same control step') — the\n\
     latency optimum sits in between.\n"

(* ------------------------------------------------------------------ *)
(* EXP-VERIF: co-simulation                                            *)
(* ------------------------------------------------------------------ *)

let cosim () =
  section "EXP-VERIF — design verification by three-level co-simulation";
  let t =
    Table.create
      ~headers:[ "workload"; "random vectors"; "behavioral = CDFG = RTL"; "gate-level FSM" ]
  in
  List.iter
    (fun (name, src) ->
      let d = Flow.synthesize src in
      let runs = if name = "diffeq" then 5 else 15 in
      let abstract =
        match Hls_sim.Cosim.check_random ~runs (Flow.cosim_design d) with
        | Ok () -> "agree"
        | Error e -> "MISMATCH: " ^ e
      in
      let gate =
        match
          Hls_sim.Cosim.check_random ~runs:3 ~gate_level_control:true
            (Flow.cosim_design d)
        with
        | Ok () -> "agree"
        | Error e -> "MISMATCH: " ^ e
      in
      Table.add_row t [ name; string_of_int runs; abstract; gate ])
    Workloads.all;
  Table.print t;
  (* the concrete accuracy story for sqrt *)
  let d = Flow.synthesize Workloads.sqrt_newton in
  let ty = Ast.Tfix (8, 24) in
  Printf.printf "\nsqrt RTL accuracy (paper's 4 Newton iterations):\n";
  List.iter
    (fun x ->
      let r =
        Hls_sim.Rtl_sim.run d.Flow.datapath ~inputs:[ ("x", Hls_sim.Beh_sim.to_raw ty x) ]
      in
      let y = Hls_sim.Beh_sim.of_raw ty (List.assoc "y" r.Hls_sim.Rtl_sim.finals) in
      Printf.printf "  sqrt(%-6.4f) = %-9.6f  true %-9.6f  |err| %.2e  (%d cycles)\n" x y
        (sqrt x)
        (abs_float (y -. sqrt x))
        r.Hls_sim.Rtl_sim.cycles)
    [ 0.0625; 0.25; 0.5; 0.75; 1.0 ]

(* ------------------------------------------------------------------ *)
(* EXP-DSE: design-space exploration                                   *)
(* ------------------------------------------------------------------ *)

let explore () =
  section "EXP-DSE — design-space exploration (area/latency trade-offs)";
  List.iter
    (fun (name, src) ->
      Printf.printf "\n%s, resource-limit sweep:\n" name;
      print_string (Explore.table (Explore.sweep ~schedulers:[ Flow.List_path ] src)))
    [ ("sqrt", Workloads.sqrt_newton); ("diffeq", Workloads.diffeq) ];
  Printf.printf "\ndiffeq, scheduler sweep at 2 FUs:\n";
  print_string (Explore.table (Explore.sweep ~limits:[ Limits.two_fu ] Workloads.diffeq))

(* ------------------------------------------------------------------ *)
(* EXP-PIPE: pipelined datapaths (Sehwa)                               *)
(* ------------------------------------------------------------------ *)

let pipeline_compare () =
  section "EXP-PIPE — pipelined data paths (Sehwa, sections 3.3/4)";
  List.iter
    (fun (name, tree_height) ->
      let g = block_for_sched (Workloads.find name) ~tree_height in
      let dep = Depgraph.of_dfg g in
      Printf.printf "\n%s: %d ops, critical path %d\n" name (Depgraph.n_ops dep)
        (Depgraph.critical_length dep);
      let t =
        Table.create
          ~headers:
            [ "initiation interval"; "latency"; "throughput (1/II)"; "steady-state units" ]
      in
      List.iter
        (fun (ii, latency, demand) ->
          Table.add_row t
            [
              string_of_int ii;
              string_of_int latency;
              Printf.sprintf "%.2f results/step" (1.0 /. float_of_int ii);
              String.concat ", "
                (List.map
                   (fun (c, n) -> Printf.sprintf "%d %s" n (Op.fu_class_to_string c))
                   demand);
            ])
        (Pipeline.throughput_table g);
      Table.print t)
    [ ("fir8", true); ("biquad3", false) ];
  Printf.printf
    "\nshape: Sehwa's cost/performance curve — halving the initiation\n\
     interval buys throughput with more concurrently-busy units.\n"

(* ------------------------------------------------------------------ *)
(* EXP-ILP: 0/1 mathematical-programming formulations (Hafer)          *)
(* ------------------------------------------------------------------ *)

let ilp_compare () =
  section "EXP-ILP — exact 0/1 programming vs heuristics (section 3.2.2)";
  (* scheduling *)
  let t = Table.create ~headers:[ "block"; "limits"; "ILP steps"; "B&B"; "list"; "ASAP" ] in
  let sched_row name g limits limits_str =
    let row f = match f with Some s -> string_of_int (Schedule.n_steps s) | None -> "-" in
    Table.add_row t
      [
        name;
        limits_str;
        row (exact (Ilp_sched.schedule_dep ~limits) g);
        row (exact (Branch_bound.schedule_dep ~limits) g);
        row (Some (Depgraph.block (List_sched.schedule_dep ~limits) g));
        row (Some (Depgraph.block (Asap.schedule_dep ~limits) g));
      ]
  in
  let sqrt_body =
    let cfg = sqrt_optimized_cfg () in
    Cfg.dfg cfg 1
  in
  sched_row "sqrt body (optimized)" sqrt_body (Limits.Total 2) "2 FUs";
  sched_row "Fig 3/4 graph" (fig34_dfg ()) (Limits.Total 2) "2 FUs";
  sched_row "diffeq body" (block_for_sched Workloads.diffeq ~tree_height:false)
    (Limits.Total 2) "2 FUs";
  Table.print t;
  (* allocation *)
  let t2 =
    Table.create
      ~headers:
        ("design" :: "ILP units"
        :: List.map (Flow.Knob.text Flow.Knob.allocator) [ `Clique; `Greedy_min_mux ])
  in
  List.iter
    (fun name ->
      let d = Flow.synthesize (Workloads.find name) in
      let row =
        [
          name;
          (match Hls_alloc.Ilp_alloc.min_units d.Flow.sched with
          | Some k -> string_of_int k
          | None -> "(too large)");
          string_of_int (Hls_alloc.Fu_alloc.n_units (Hls_alloc.Fu_alloc.by_clique d.Flow.sched));
          string_of_int (Hls_alloc.Fu_alloc.n_units d.Flow.fu);
        ]
      in
      Table.add_row t2 row)
    [ "sqrt"; "gcd"; "twophase" ];
  Table.print t2;
  Printf.printf
    "\npaper: 'finding an optimal solution requires exhaustive search, which\n\
     is very expensive. This was done by Hafer on a small example' — the\n\
     exact optimum confirms the heuristics on these small designs.\n"

(* ------------------------------------------------------------------ *)
(* EXP-IFCONV: control/data trade-off ablation                         *)
(* ------------------------------------------------------------------ *)

let if_convert_compare () =
  section "EXP-IFCONV — if-conversion: trading control steps for muxes";
  let diamond_src =
    "module absdiff(input a, b: int<16>; output y: int<16>);\n\
     begin\n\
     \  if a > b then\n\
     \    y := a - b;\n\
     \  else\n\
     \    y := b - a;\n\
     \  end;\n\
     end"
  in
  let t =
    Table.create
      ~headers:[ "design"; "blocks"; "FSM states"; "worst-path steps"; "muxes (free)" ]
  in
  let measure label cfg =
    let cs = schedule_cfg (List_sched.schedule_dep ~limits:Limits.two_fu) cfg in
    let worst =
      (* longest acyclic state path: for this diamond, blocks on one arm *)
      Cfg_sched.total_states cs
    in
    let muxes =
      List.fold_left
        (fun acc bid ->
          Dfg.fold
            (fun acc _ n -> match n.Dfg.op with Op.Mux -> acc + 1 | _ -> acc)
            acc (Cfg.dfg cfg bid))
        0 (Cfg.block_ids cfg)
    in
    Table.add_row t
      [
        label;
        string_of_int (Cfg.n_blocks cfg);
        string_of_int (Cfg_sched.total_states cs);
        string_of_int worst;
        string_of_int muxes;
      ]
  in
  let prog = Typecheck.check (Inline.expand (Parser.parse diamond_src)) in
  let base = Hls_cdfg.Compile.compile prog in
  let base = Hls_transform.Passes.run_spec Hls_transform.Passes.default_pipeline ~outputs:[ "y" ] base in
  measure "absdiff, branched" base;
  let conv = Hls_cdfg.Compile.compile prog in
  let conv = Hls_transform.Passes.run_spec Hls_transform.Passes.default_pipeline ~outputs:[ "y" ] conv in
  let conv, _ = Hls_transform.If_convert.run conv in
  let conv, _ = Hls_transform.Clean_cfg.merge conv in
  measure "absdiff, if-converted" conv;
  Table.print t;
  (* correctness of the converted design end to end *)
  let r1 = Hls_sim.Cfg_sim.run base ~inputs:[ ("a", 9); ("b", 4) ] in
  let r2 = Hls_sim.Cfg_sim.run conv ~inputs:[ ("a", 9); ("b", 4) ] in
  Printf.printf "\n|9-4| both ways: branched %s, converted %s\n"
    (match List.assoc_opt "y" r1 with Some v -> string_of_int v | None -> "?")
    (match List.assoc_opt "y" r2 with Some v -> string_of_int v | None -> "?");
  Printf.printf
    "paper (section 4): 'trading off complexity between the control and the\n\
     data paths' — fewer states and branches, extra (free) steering muxes.\n"

let () =
  fig1 ();
  fig2 ();
  fig34 ();
  fig5 ();
  fig67 ();
  sched_compare ();
  reg_compare ();
  ctrl_compare ();
  interconnect_compare ();
  pipeline_compare ();
  ilp_compare ();
  if_convert_compare ();
  chaining_compare ();
  cosim ();
  explore ();
  print_newline ()
