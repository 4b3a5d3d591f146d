(* Simulation tests: the behavioral interpreter's semantics, behavioral =
   CDFG equivalence on random programs, RTL cycle accounting, and full
   three-level co-simulation of every workload (the design-verification
   experiment). *)

open Hls_lang
open Hls_core
open Hls_sim

let fix824 = Ast.Tfix (8, 24)

(* ---- behavioral interpreter ---- *)

let run_src src inputs =
  Beh_sim.run (Typecheck.check (Parser.parse src)) ~inputs

let test_beh_sqrt_accuracy () =
  List.iter
    (fun x ->
      let out = run_src Workloads.sqrt_newton [ ("x", Beh_sim.to_raw fix824 x) ] in
      let y = Beh_sim.of_raw fix824 (List.assoc "y" out) in
      Alcotest.(check bool)
        (Printf.sprintf "sqrt %f: %f vs %f" x y (sqrt x))
        true
        (abs_float (y -. sqrt x) < 1e-4))
    [ 0.0625; 0.1; 0.25; 0.5; 0.9; 1.0 ]

let test_beh_gcd () =
  List.iter
    (fun (a, b, g) ->
      let out = run_src Workloads.gcd [ ("a_in", a); ("b_in", b) ] in
      Alcotest.(check int) (Printf.sprintf "gcd %d %d" a b) g (List.assoc "g" out))
    [ (12, 18, 6); (7, 7, 7); (35, 14, 7); (100, 75, 25); (17, 5, 1) ]

let test_beh_wrap_semantics () =
  let out =
    run_src "module m(input a: int<4>; output y: int<4>); begin y := a + 1; end"
      [ ("a", 7) ]
  in
  Alcotest.(check int) "int<4> overflow wraps" (-8) (List.assoc "y" out)

let test_beh_division_by_zero () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (run_src "module m(input a: int<8>; output y: int<8>); begin y := 1 / a; end"
            [ ("a", 0) ]);
       false
     with Beh_sim.Sim_error _ -> true)

let test_beh_fuel () =
  Alcotest.(check bool) "non-terminating loop trapped" true
    (try
       ignore
         (Beh_sim.run ~fuel:1000
            (Typecheck.check
               (Parser.parse
                  "module m(output y: int<8>); begin y := 0; while y = 0 do y := 0; end; end"))
            ~inputs:[]);
       false
     with Beh_sim.Sim_error _ -> true)

let test_beh_for_loop () =
  let out =
    run_src
      "module m(output y: int<16>); var i: int<8>; begin y := 0; for i := 1 to 10 do y := y + i; end; end"
      []
  in
  Alcotest.(check int) "sum 1..10" 55 (List.assoc "y" out)

(* ---- behavioral = CDFG ---- *)

let prop_beh_cfg_agree =
  QCheck.Test.make ~name:"behavioral and CDFG interpreters agree" ~count:200
    Gen.program_arbitrary
    (fun seed ->
      let prog = Typecheck.check (Gen.program_of_seed seed) in
      let cfg = Hls_cdfg.Compile.compile prog in
      let rng = Random.State.make [| seed * 3 |] in
      List.for_all
        (fun _ ->
          let inputs =
            [ ("a", Random.State.int rng 500); ("b", Random.State.int rng 500) ]
          in
          let r1 = Beh_sim.run prog ~inputs in
          let r2 = Cfg_sim.run cfg ~inputs in
          List.for_all
            (fun p -> List.assoc_opt p r1 = List.assoc_opt p r2)
            [ "o1"; "o2" ])
        [ 1; 2; 3 ])

(* ---- staged simulators = the retired interpreters ---- *)

(* A run's observable outcome: the final store, or the Sim_error message. *)
let beh_outcome f = try Ok (f ()) with Beh_sim.Sim_error m -> Error m
let cfg_outcome f = try Ok (f ()) with Cfg_sim.Sim_error m -> Error m

(* In range, negative, past the top of int<16>, or zero (a divisor trap). *)
let input_pattern rng =
  match Random.State.int rng 4 with
  | 0 -> Random.State.int rng 500
  | 1 -> -Random.State.int rng 40_000
  | 2 -> 32_768 + Random.State.int rng 100_000
  | _ -> 0

(* Port patterns, sometimes with a repeated name, a local variable or a
   name the program does not declare: the levels differ on these (first
   or last binding wins, wrapped or raw) and each staged level must keep
   its interpreter's rule. *)
let random_inputs rng =
  let base = [ ("a", input_pattern rng); ("b", input_pattern rng) ] in
  match Random.State.int rng 4 with
  | 0 -> base @ [ ("a", input_pattern rng) ]
  | 1 -> ("p", input_pattern rng) :: base
  | 2 -> base @ [ ("zz", input_pattern rng) ]
  | _ -> base

let prop_staged_matches_reference =
  QCheck.Test.make ~name:"staged simulators match the reference interpreters" ~count:200
    Gen.program_arbitrary
    (fun seed ->
      let ast = Gen.program_of_seed seed in
      (* half the programs divide by an input first *)
      let ast =
        if seed mod 2 = 0 then
          { ast with Ast.body = Builder.( <-- ) "r" Builder.(v "a" / v "b") :: ast.Ast.body }
        else ast
      in
      let prog = Typecheck.check ast in
      let cfg = Hls_cdfg.Compile.compile prog in
      let beh_img = Beh_sim.compile prog and cfg_img = Cfg_sim.compile cfg in
      let rng = Random.State.make [| (seed * 5) + 3 |] in
      (* one image per level serves every vector, including those after
         a run that raised *)
      List.for_all
        (fun _ ->
          let inputs = random_inputs rng in
          let fuel =
            if Random.State.int rng 3 = 0 then Some (1 + Random.State.int rng 30) else None
          in
          let beh_ref = beh_outcome (fun () -> Hls_reference.Beh_reference.run ?fuel prog ~inputs) in
          let cfg_ref = cfg_outcome (fun () -> Hls_reference.Cfg_reference.run ?fuel cfg ~inputs) in
          let agree what expected got =
            expected = got
            || QCheck.Test.fail_reportf "%s differs on inputs %s%s" what
                 (String.concat ", " (List.map (fun (n, x) -> Printf.sprintf "%s=%d" n x) inputs))
                 (match fuel with Some f -> Printf.sprintf " (fuel %d)" f | None -> "")
          in
          agree "fresh behavioral run" beh_ref (beh_outcome (fun () -> Beh_sim.run ?fuel prog ~inputs))
          && agree "reused behavioral image" beh_ref
               (beh_outcome (fun () -> Beh_sim.run_image ?fuel beh_img ~inputs))
          && agree "fresh CDFG run" cfg_ref (cfg_outcome (fun () -> Cfg_sim.run ?fuel cfg ~inputs))
          && agree "reused CDFG image" cfg_ref
               (cfg_outcome (fun () -> Cfg_sim.run_image ?fuel cfg_img ~inputs)))
        (List.init 6 Fun.id))

let test_image_reuse_after_error () =
  let prog = Typecheck.check (Parser.parse Workloads.gcd) in
  let cfg = Hls_cdfg.Compile.compile prog in
  let beh_img = Beh_sim.compile prog and cfg_img = Cfg_sim.compile cfg in
  let a = [ ("a_in", 36); ("b_in", 24) ] and b = [ ("a_in", 35); ("b_in", 14) ] in
  let beh inputs = Beh_sim.run_image beh_img ~inputs
  and cfg_run inputs = Cfg_sim.run_image cfg_img ~inputs in
  let store = Alcotest.(list (pair string int)) in
  Alcotest.check store "behavioral A" (Beh_sim.run prog ~inputs:a) (beh a);
  Alcotest.check store "behavioral B" (Beh_sim.run prog ~inputs:b) (beh b);
  Alcotest.check store "CDFG A" (Cfg_sim.run cfg ~inputs:a) (cfg_run a);
  Alcotest.check store "CDFG B" (Cfg_sim.run cfg ~inputs:b) (cfg_run b);
  (match Beh_sim.run_image ~fuel:3 beh_img ~inputs:b with
  | _ -> Alcotest.fail "behavioral run should run out of fuel"
  | exception Beh_sim.Sim_error _ -> ());
  (match Cfg_sim.run_image ~fuel:3 cfg_img ~inputs:b with
  | _ -> Alcotest.fail "CDFG run should run out of fuel"
  | exception Cfg_sim.Sim_error _ -> ());
  Alcotest.check store "behavioral A after a raise" (Beh_sim.run prog ~inputs:a) (beh a);
  Alcotest.check store "CDFG A after a raise" (Cfg_sim.run cfg ~inputs:a) (cfg_run a)

(* ---- RTL cycle accounting ---- *)

let test_rtl_cycles_sqrt () =
  let d = Flow.synthesize Workloads.sqrt_newton in
  let r = Rtl_sim.run d.Flow.datapath ~inputs:[ ("x", Beh_sim.to_raw fix824 0.5) ] in
  (* 10 compute steps + 1 exit state *)
  Alcotest.(check int) "cycles" 11 r.Rtl_sim.cycles

let test_rtl_trace_matches_schedule () =
  let d = Flow.synthesize Workloads.fir8 in
  let r = Rtl_sim.run d.Flow.datapath ~inputs:[ ("x0", 100) ] in
  Alcotest.(check int) "straight-line cycles = FSM states"
    (Hls_sched.Cfg_sched.total_states d.Flow.sched)
    r.Rtl_sim.cycles

(* ---- VCD waveforms ---- *)

let test_vcd_dump () =
  let d = Flow.synthesize Workloads.sqrt_newton in
  let text =
    Vcd.dump d.Flow.datapath ~inputs:[ ("x", Beh_sim.to_raw fix824 0.25) ]
  in
  let contains needle =
    let lh = String.length text and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub text i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun fragment -> Alcotest.(check bool) fragment true (contains fragment))
    [ "$timescale"; "$enddefinitions"; "$dumpvars"; " state $end"; " y $end"; "#11" ];
  (* every non-empty line is well-formed: directive, timestamp, or a
     binary value change *)
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "line %S" line)
          true
          (line.[0] = '$' || line.[0] = '#' || line.[0] = 'b'))
    (String.split_on_char '
' text)

(* ---- compiled simulator vs. reference interpreter ---- *)

(* positive patterns, as in Cosim.check_random: divisions in the specs
   stay well-defined and fixed-point quotients stay in range *)
let random_input_value rng ty =
  let bits =
    match ty with Ast.Tbool -> 1 | Ast.Tint w -> w | Ast.Tfix (i, f) -> i + f
  in
  let magnitude = max 1 (min (bits - 1) 16) in
  1 + Random.State.int rng ((1 lsl magnitude) - 1)

let input_ports_of (prog : Typed.tprogram) =
  List.filter_map
    (fun (p : Ast.port) ->
      if p.Ast.pdir = Ast.Input then Some (p.Ast.pname, p.Ast.pty) else None)
    prog.Typed.tports

let sim_trace kernel dp ~inputs =
  let log = ref [] in
  let on_cycle ~cycle ~state ~regs = log := (cycle, state, regs) :: !log in
  let r = kernel ~on_cycle dp ~inputs in
  (r.Rtl_sim.finals, r.Rtl_sim.cycles, List.rev !log)

(* the compiled side under gate-level control steps a controller
   synthesized the way the reference synthesizes its own *)
let controller_for ~gate_level_control ~encoding (dp : Hls_rtl.Datapath.t) =
  if gate_level_control then
    Some (Hls_ctrl.Ctrl_synth.synthesize ~style:encoding dp.Hls_rtl.Datapath.fsm)
  else None

let check_sim_agree ~what dp ~inputs ~gate_level_control ~encoding =
  let compiled =
    sim_trace
      (fun ~on_cycle dp ~inputs ->
        Rtl_sim.run ?controller:(controller_for ~gate_level_control ~encoding dp) ~on_cycle dp
          ~inputs)
      dp ~inputs
  in
  let interpreted =
    sim_trace
      (fun ~on_cycle dp ~inputs ->
        Hls_reference.Rtl_reference.run ~gate_level_control ~encoding ~on_cycle dp ~inputs)
      dp ~inputs
  in
  Alcotest.(check bool)
    (what ^ ": finals, cycles and per-cycle trace agree")
    true (compiled = interpreted)

(* every workload runs the abstract controller (two vectors) plus
   gate-level binary, gray and one-hot control *)
let sim_modes =
  [
    (2, false, Hls_ctrl.Encoding.Binary);
    (1, true, Hls_ctrl.Encoding.Binary);
    (1, true, Hls_ctrl.Encoding.Gray);
    (1, true, Hls_ctrl.Encoding.One_hot);
  ]

let test_compiled_sim_matches_reference () =
  List.iter
    (fun (name, src) ->
      let d = Flow.synthesize src in
      let prog = (Flow.cosim_design d).Cosim.d_prog in
      let ports = input_ports_of prog in
      let rng = Random.State.make [| 11 |] in
      List.iter
        (fun (vectors, glc, enc) ->
          for _ = 1 to vectors do
            let inputs =
              List.map (fun (n, ty) -> (n, random_input_value rng ty)) ports
            in
            check_sim_agree
              ~what:
                (Printf.sprintf "%s gate=%b %s" name glc
                   (Hls_ctrl.Encoding.style_to_string enc))
              d.Flow.datapath ~inputs ~gate_level_control:glc ~encoding:enc
          done)
        sim_modes)
    Workloads.all

(* random programs must synthesize clean; a lint error fails the property *)
let synthesize_program prog =
  match Flow.synthesize_program_result prog with
  | Ok d -> d
  | Error ds ->
      QCheck.Test.fail_reportf "lint: %s"
        (String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds))

let prop_compiled_sim_matches_reference_random =
  QCheck.Test.make
    ~name:"compiled RTL simulator matches the reference on random programs" ~count:30
    Gen.program_arbitrary
    (fun seed ->
      let prog = Gen.program_of_seed seed in
      let d = synthesize_program prog in
      let tprog = (Flow.cosim_design d).Cosim.d_prog in
      let ports = input_ports_of tprog in
      let rng = Random.State.make [| (seed * 7) + 1 |] in
      (* four vectors, alternating the abstract controller and
         gate-level binary control *)
      List.for_all
        (fun gate_level_control ->
          let inputs =
            List.map (fun (n, ty) -> (n, random_input_value rng ty)) ports
          in
          let trace_of kernel = sim_trace kernel d.Flow.datapath ~inputs in
          let encoding = Hls_ctrl.Encoding.Binary in
          trace_of (fun ~on_cycle dp ~inputs ->
              Rtl_sim.run ?controller:(controller_for ~gate_level_control ~encoding dp) ~on_cycle
                dp ~inputs)
          = trace_of (fun ~on_cycle dp ~inputs ->
                Hls_reference.Rtl_reference.run ~gate_level_control ~encoding ~on_cycle dp ~inputs))
        [ false; true; false; true ])

let test_batch_equals_individual_runs () =
  let d = Flow.synthesize Workloads.sqrt_newton in
  let prog = (Flow.cosim_design d).Cosim.d_prog in
  let ports = input_ports_of prog in
  let rng = Random.State.make [| 7 |] in
  let rec gen i acc =
    if i >= 6 then List.rev acc
    else
      gen (i + 1)
        (List.map (fun (n, ty) -> (n, random_input_value rng ty)) ports :: acc)
  in
  let vectors = gen 0 [] in
  let image = Rtl_sim.compile d.Flow.datapath in
  let batch0 = Hls_obs.Trace.counter "sim/batch_vectors" in
  let batched = Rtl_sim.run_batch image ~vectors in
  Alcotest.(check int) "batch size counted" 6
    (Hls_obs.Trace.counter "sim/batch_vectors" - batch0);
  List.iter2
    (fun (b : Rtl_sim.result) inputs ->
      let r = Rtl_sim.run_image image ~inputs in
      Alcotest.(check int) "cycles agree" r.Rtl_sim.cycles b.Rtl_sim.cycles;
      Alcotest.(check (list (pair string int)))
        "finals agree" r.Rtl_sim.finals b.Rtl_sim.finals)
    batched vectors

(* ---- cosim: the verification experiment ---- *)

let test_cosim_all_workloads () =
  List.iter
    (fun (name, src) ->
      let d = Flow.synthesize src in
      match Cosim.check_random ~runs:8 (Flow.cosim_design d) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    Workloads.all

let encodings = [ Hls_ctrl.Encoding.Binary; Hls_ctrl.Encoding.One_hot; Hls_ctrl.Encoding.Gray ]

let synthesize_with encoding src =
  Flow.synthesize ~options:{ Flow.default_options with Flow.encoding } src

(* gate-level control steps the controller each design ships, under
   every encoding *)
let test_cosim_gate_level () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun encoding ->
          let d = synthesize_with encoding src in
          match Cosim.check_random ~runs:4 ~gate_level_control:true (Flow.cosim_design d) with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s %s (gate level): %s" name
                (Hls_ctrl.Encoding.style_to_string encoding)
                e)
        encodings)
    Workloads.all

(* The shipped controller with one product term stuck at 1: the first
   cube of the first output that the entry state's transition leaves at
   0 loses all its literals. Every run starts with that transition, so
   the fault is exercised by any stimulus. *)
let stuck_cube c =
  let logic = Array.copy (Hls_ctrl.Ctrl_synth.next_logic c) in
  let fsm = Hls_ctrl.Ctrl_synth.fsm c in
  let entry = Hls_ctrl.Fsm.entry fsm in
  let target =
    Hls_ctrl.Ctrl_synth.state_code c (Hls_ctrl.Ctrl_synth.next_state c ~state:entry ~conds:[])
  in
  let stuck k sop = sop <> [] && target land (1 lsl k) = 0 in
  match List.find_opt (fun k -> stuck k logic.(k)) (List.init (Array.length logic) Fun.id) with
  | None -> None
  | Some k ->
      logic.(k) <- { Hls_ctrl.Logic.mask = 0; value = 0 } :: List.tl logic.(k);
      Some (Hls_ctrl.Ctrl_synth.with_next_logic c logic)

(* A fault in the shipped next-state logic is invisible to the abstract
   FSM and must be caught at gate level. *)
let test_cosim_gate_level_mutated_controller () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun encoding ->
          let d = synthesize_with encoding src in
          let what = Printf.sprintf "%s %s" name (Hls_ctrl.Encoding.style_to_string encoding) in
          match stuck_cube d.Flow.controller with
          | None -> Alcotest.failf "%s: no cube to mutate" what
          | Some mutant ->
              let cd = { (Flow.cosim_design d) with Cosim.d_controller = mutant } in
              (match Cosim.check_random ~runs:4 cd with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s (abstract FSM): %s" what e);
              match Cosim.check_random ~runs:4 ~gate_level_control:true cd with
              | Ok () -> Alcotest.failf "%s: mutated controller not flagged" what
              | Error e ->
                  (* a failure, simulation errors included, is a verdict
                     like any other and is kept *)
                  let reused = Hls_obs.Trace.counter "sim/cosim_reused" in
                  Alcotest.(check (result unit string))
                    (what ^ ": failure kept") (Error e)
                    (Cosim.check_random ~runs:4 ~gate_level_control:true cd);
                  Alcotest.(check int) (what ^ ": failure reused") (reused + 1)
                    (Hls_obs.Trace.counter "sim/cosim_reused"))
        encodings)
    Workloads.all

let test_cosim_detects_mismatch () =
  (* simulate against the wrong datapath: must be flagged *)
  let d1 = Flow.synthesize Workloads.sqrt_newton in
  let d2 =
    Flow.synthesize
      "module sqrt(input x: fix<8,24>; output y: fix<8,24>); begin y := x; end"
  in
  let franken =
    { (Flow.cosim_design d1) with Cosim.d_datapath = d2.Flow.datapath }
  in
  (match Cosim.check franken ~inputs:[ ("x", Beh_sim.to_raw fix824 0.5) ] with
  | Ok _ -> Alcotest.fail "mismatch not detected"
  | Error e -> Alcotest.(check bool) "names the output" true (String.length e > 0));
  (* a controller whose next code decodes to no state: the RTL level's
     simulation error is the verdict, named by its level *)
  match stuck_cube d1.Flow.controller with
  | None -> Alcotest.fail "sqrt: no cube to mutate"
  | Some mutant -> (
      let d = { (Flow.cosim_design d1) with Cosim.d_controller = mutant } in
      match Cosim.check ~gate_level_control:true d ~inputs:[ ("x", Beh_sim.to_raw fix824 0.5) ] with
      | Ok _ -> Alcotest.fail "mutated controller not detected"
      | Error e ->
          Alcotest.(check string) "simulation error as a verdict"
            "rtl: Ctrl_synth.next_state: undecodable next code" e)

(* The behavioral level wraps an input to its port's format; the CDFG
   and RTL levels must see the same wrapped pattern, not the raw one. *)
let test_cosim_out_of_range_inputs () =
  let d =
    Flow.cosim_design
      (Flow.synthesize "module m(input a: int<8>; output y: int<8>); begin y := a; end")
  in
  List.iter
    (fun a ->
      match Cosim.check d ~inputs:[ ("a", a) ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "a = %d: %s" a e)
    [ 200; 255; 300; -3 ];
  (match Cosim.check d ~inputs:[ ("y", 1) ] with
  | Ok _ -> Alcotest.fail "an output port accepted as an input"
  | Error e -> Alcotest.(check string) "names the port" "no input port y" e);
  let d =
    Flow.cosim_design
      (Flow.synthesize
         "module m(input a: int<8>; output y: int<8>; output z: int<16>);\n\
          var i: int<8>;\n\
          begin\n\
         \  y := a * 3;\n\
         \  z := a;\n\
         \  for i := 0 to 2 do\n\
         \    if y < 0 then y := y + a; else z := z - y; end;\n\
         \  end;\n\
          end")
  in
  for a = 0 to 255 do
    match Cosim.check d ~inputs:[ ("a", a) ] with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "a = %d: %s" a e
  done

(* ---- cosim: verdict reuse ---- *)

(* A check right after its source design's, with the reuse list warm,
   on a design that shares every part but one: never answered from the
   source's verdict. *)
let test_cosim_reuse_never_crosses_designs () =
  let d1 = Flow.synthesize Workloads.sqrt_newton in
  let d2 =
    Flow.synthesize
      "module sqrt(input x: fix<8,24>; output y: fix<8,24>); begin y := x; end"
  in
  let source = Flow.cosim_design d1 in
  let franken = { source with Cosim.d_datapath = d2.Flow.datapath } in
  (match Cosim.check_random ~runs:4 source with
  | Ok () -> ()
  | Error e -> Alcotest.failf "source design: %s" e);
  (match Cosim.check_random ~runs:4 franken with
  | Ok () -> Alcotest.fail "franken datapath answered with the source's verdict"
  | Error _ -> ());
  let mutant =
    match stuck_cube d1.Flow.controller with
    | Some c -> { source with Cosim.d_controller = c }
    | None -> Alcotest.fail "sqrt: no cube to mutate"
  in
  (match Cosim.check_random ~runs:4 ~gate_level_control:true source with
  | Ok () -> ()
  | Error e -> Alcotest.failf "source design (gate level): %s" e);
  Alcotest.(check bool)
    "franken controller answered with the source's verdict" true
    (match Cosim.check_random ~runs:4 ~gate_level_control:true mutant with
    | Ok () -> false
    | Error _ -> true)

let test_cosim_recheck_reuses_verdict () =
  let d = Flow.cosim_design (Flow.synthesize Workloads.gcd) in
  let reused () = Hls_obs.Trace.counter "sim/cosim_reused"
  and compiled () = Hls_obs.Trace.counter "sim/images_compiled" in
  let first = Cosim.check_random ~runs:5 d in
  let r0 = reused () and c0 = compiled () in
  let again = Cosim.check_random ~runs:5 { d with Cosim.d_prog = d.Cosim.d_prog } in
  Alcotest.(check (result unit string)) "same verdict" first again;
  Alcotest.(check int) "reuse counted" (r0 + 1) (reused ());
  Alcotest.(check int) "no image compiled" c0 (compiled ());
  ignore (Cosim.check_random ~runs:6 d);
  Alcotest.(check int) "another run count simulates" (c0 + 1) (compiled ());
  ignore (Cosim.check_random ~runs:5 ~seed:7 d);
  Alcotest.(check int) "another seed simulates" (c0 + 2) (compiled ());
  ignore (Cosim.check_random ~runs:5 ~gate_level_control:true d);
  Alcotest.(check int) "gate level simulates" (c0 + 3) (compiled ())

(* A kept verdict answers only while its design is alive, and does
   not keep it alive: a long run of distinct designs retains none. *)
let test_cosim_reuse_retains_no_design () =
  let alive = Weak.create 1 in
  let check_and_drop () =
    let d = Flow.cosim_design (Flow.synthesize Workloads.gcd) in
    ignore (Cosim.check_random ~runs:2 d);
    Weak.set alive 0 (Some d.Cosim.d_datapath)
  in
  check_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "checked datapath collected" false (Weak.check alive 0)

(* A Marshal round trip keeps a design's value and loses its physical
   identity, so checking the copy always simulates: the oracle for
   every verdict the reuse list hands out. *)
let fresh_copy (d : Cosim.design) : Cosim.design =
  Marshal.from_string (Marshal.to_string d []) 0

let check_points_against_copies name engine options =
  let reused0 = Hls_obs.Trace.counter "sim/cosim_reused" in
  List.iteri
    (fun i r ->
      match r with
      | Error _ -> Alcotest.failf "%s point %d: synthesis failed" name i
      | Ok d ->
          let d = Flow.cosim_design d in
          List.iter
            (fun gate_level_control ->
              let check d = Cosim.check_random ~runs:3 ~gate_level_control d in
              let verdict = check d in
              Alcotest.(check (result unit string))
                (Printf.sprintf "%s point %d gate=%b: verdict of a fresh copy" name i
                   gate_level_control)
                (check (fresh_copy d)) verdict)
            [ false; true ])
    (Dse.run_result engine options);
  Alcotest.(check bool)
    (name ^ ": some verdicts reused")
    true
    (Hls_obs.Trace.counter "sim/cosim_reused" > reused0)

let default_cross base =
  Explore.cross ~base ~schedulers:Explore.default_schedulers ~limits:Explore.default_limits ()
  |> List.map snd

let test_cosim_reuse_workloads () =
  List.iter
    (fun (name, src) ->
      let engine = Dse.create src in
      List.iter
        (fun encoding ->
          check_points_against_copies
            (Printf.sprintf "%s %s" name (Hls_ctrl.Encoding.style_to_string encoding))
            engine
            (default_cross { Flow.default_options with Flow.encoding }))
        encodings)
    Workloads.all

let test_cosim_reuse_random_programs () =
  for seed = 1 to 20 do
    let ast = Gen.program_of_seed seed in
    check_points_against_copies
      (Printf.sprintf "program %d" seed)
      (Dse.create_program ast) (default_cross Flow.default_options)
  done

let prop_random_programs_synthesize_and_cosim =
  QCheck.Test.make ~name:"random programs synthesize and co-simulate" ~count:40
    Gen.program_arbitrary
    (fun seed ->
      let prog = Gen.program_of_seed seed in
      let d = synthesize_program prog in
      match Cosim.check_random ~runs:3 ~seed (Flow.cosim_design d) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

(* Seeds whose designs once shared a register between two variables
   both needed inside one block (a write clobbered a value still to be
   read), which block-boundary liveness did not see. *)
let test_cosim_register_sharing_regressions () =
  List.iter
    (fun seed ->
      let d = synthesize_program (Gen.program_of_seed seed) in
      match Cosim.check_random ~runs:3 ~seed (Flow.cosim_design d) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed e)
    [ 2631; 3080; 3698 ]

let () =
  Alcotest.run "sim"
    [
      ( "behavioral",
        [
          Alcotest.test_case "sqrt accuracy" `Quick test_beh_sqrt_accuracy;
          Alcotest.test_case "gcd" `Quick test_beh_gcd;
          Alcotest.test_case "wraparound" `Quick test_beh_wrap_semantics;
          Alcotest.test_case "division by zero" `Quick test_beh_division_by_zero;
          Alcotest.test_case "fuel" `Quick test_beh_fuel;
          Alcotest.test_case "for loop" `Quick test_beh_for_loop;
        ] );
      ("cdfg", [ QCheck_alcotest.to_alcotest prop_beh_cfg_agree ]);
      ( "staged",
        [
          QCheck_alcotest.to_alcotest prop_staged_matches_reference;
          Alcotest.test_case "image reuse after an error" `Quick test_image_reuse_after_error;
        ] );
      ( "rtl",
        [
          Alcotest.test_case "sqrt cycle count" `Quick test_rtl_cycles_sqrt;
          Alcotest.test_case "cycles = states (straight line)" `Quick test_rtl_trace_matches_schedule;
        ] );
      ("vcd", [ Alcotest.test_case "dump" `Quick test_vcd_dump ]);
      ( "compiled",
        [
          Alcotest.test_case "matches reference on workloads x encoding x control" `Slow
            test_compiled_sim_matches_reference;
          Alcotest.test_case "batch replay equals individual runs" `Quick
            test_batch_equals_individual_runs;
          QCheck_alcotest.to_alcotest prop_compiled_sim_matches_reference_random;
        ] );
      ( "cosim",
        [
          Alcotest.test_case "all workloads" `Slow test_cosim_all_workloads;
          Alcotest.test_case "gate-level control" `Quick test_cosim_gate_level;
          Alcotest.test_case "gate-level mutated controller" `Quick
            test_cosim_gate_level_mutated_controller;
          Alcotest.test_case "detects mismatch" `Quick test_cosim_detects_mismatch;
          Alcotest.test_case "out-of-range inputs" `Quick test_cosim_out_of_range_inputs;
          QCheck_alcotest.to_alcotest prop_random_programs_synthesize_and_cosim;
          Alcotest.test_case "register sharing regressions" `Quick
            test_cosim_register_sharing_regressions;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "never crosses designs" `Quick test_cosim_reuse_never_crosses_designs;
          Alcotest.test_case "re-check reuses the verdict" `Quick
            test_cosim_recheck_reuses_verdict;
          Alcotest.test_case "retains no design" `Quick test_cosim_reuse_retains_no_design;
          Alcotest.test_case "workloads x cross x encodings = fresh copies" `Slow
            test_cosim_reuse_workloads;
          Alcotest.test_case "random programs = fresh copies" `Quick
            test_cosim_reuse_random_programs;
        ] );
    ]
