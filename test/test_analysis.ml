(* Analysis tests: mutation tests that inject one defect per IR level
   and assert the exact rule code the checker reports, plus the clean
   matrix — every workload under every scheduler/allocator combination
   must lint without errors or warnings. *)

open Hls_lang
open Hls_cdfg
open Hls_analysis
open Hls_core
module D = Diagnostic

(* {!Dse.eval_result} of a point that must synthesize *)
let eval_ok engine options =
  match Dse.eval_result engine options with
  | Ok d -> d
  | Error ds ->
      Alcotest.failf "lint: %s"
        (String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds))

let i8 = Ast.Tint 8
let has_code c ds = List.exists (fun (d : D.t) -> d.D.code = c) ds

let check_code name code ds =
  Alcotest.(check bool) (Printf.sprintf "%s flags %s" name code) true (has_code code ds)

let check_clean name ds =
  Alcotest.(check (list string)) (name ^ " is clean") []
    (List.map D.to_string (D.errors ds))

(* ---- diagnostics ---- *)

let test_diag_basics () =
  let d = D.error D.Sched ~code:"SCHED001" (D.Step (1, 2)) "op %%%d too early" 4 in
  Alcotest.(check string) "to_string" "error[SCHED001] block 1 step 2: op %4 too early"
    (D.to_string d);
  let w = D.warning D.Cdfg ~code:"CDFG003" (D.Block 3) "dead" in
  let i = D.info D.Ctrl ~code:"CTRL009" (D.Field "x") "dead field" in
  Alcotest.(check bool) "floor keeps errors" true (D.meets ~floor:D.Warning d);
  Alcotest.(check bool) "floor drops info" false (D.meets ~floor:D.Warning i);
  Alcotest.(check int) "filter" 2 (List.length (D.filter ~floor:D.Warning [ d; w; i ]));
  Alcotest.(check string) "summary empty" "clean" (D.summary []);
  (* sort: stage order first (Cdfg before Sched before Ctrl) *)
  (match D.sort [ i; d; w ] with
  | [ a; b; c ] ->
      Alcotest.(check string) "sorted stages" "cdfg,sched,ctrl"
        (String.concat "," (List.map (fun (x : D.t) -> D.stage_to_string x.D.stage) [ a; b; c ]))
  | _ -> Alcotest.fail "sort lost elements");
  match D.to_json d with
  | Hls_util.Json.Obj fields ->
      Alcotest.(check bool) "json has code" true
        (List.assoc_opt "code" fields = Some (Hls_util.Json.Str "SCHED001"))
  | _ -> Alcotest.fail "to_json is not an object"

(* ---- CDFG mutations ---- *)

let block_with term =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i8 in
  let cfg = Cfg.create () in
  let b = Cfg.add_block cfg g (term a) in
  Cfg.set_entry cfg b;
  cfg

let test_cdfg_dangling_target () =
  let cfg = block_with (fun _ -> Cfg.Goto 7) in
  check_code "goto 7" "CDFG001" (Cdfg_check.check cfg)

let test_cdfg_bad_branch_cond () =
  (* condition is the int-typed Read, not a bool *)
  let cfg = block_with (fun a -> Cfg.Branch (a, 0, 0)) in
  check_code "int cond" "CDFG002" (Cdfg_check.check cfg)

let test_cdfg_unreachable_block () =
  let cfg = block_with (fun _ -> Cfg.Halt) in
  let g = Dfg.create () in
  ignore (Cfg.add_block cfg ~label:"orphan" g Cfg.Halt);
  check_code "orphan" "CDFG003" (Cdfg_check.check cfg)

let test_cdfg_type_rules () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i8 in
  let b = Dfg.add g (Op.Read "b") [] i8 in
  (* comparison producing int, and a mux whose condition is int *)
  let c = Dfg.add g (Op.Cmp Op.Clt) [ a; b ] i8 in
  ignore (Dfg.add g Op.Mux [ a; b; c ] i8);
  let cfg = Cfg.create () in
  Cfg.set_entry cfg (Cfg.add_block cfg g Cfg.Halt);
  let ds = Cdfg_check.check cfg in
  check_code "cmp:int" "CDFG006" ds;
  Alcotest.(check bool) "two type errors" true
    (List.length (List.filter (fun (d : D.t) -> d.D.code = "CDFG006") ds) >= 2)

(* ---- range/width mutations ----

   Each rule gets one handcrafted CFG exhibiting exactly the defect the
   rule describes, driven through {!Width_check.check} (which runs the
   range analysis itself). [~ports:[]] starts every variable at the
   simulators' zero initial store; omitting it leaves variables
   unconstrained. *)

let halt_block g =
  let cfg = Cfg.create () in
  Cfg.set_entry cfg (Cfg.add_block cfg g Cfg.Halt);
  cfg

let test_range_constant_cmp () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Const 5) [] i8 in
  let b = Dfg.add g (Op.Const 3) [] i8 in
  let c = Dfg.add g (Op.Cmp Op.Clt) [ a; b ] Ast.Tbool in
  ignore (Dfg.add g (Op.Write "out") [ c ] Ast.Tbool);
  check_code "5 < 3" "RANGE001" (Width_check.check (halt_block g))

let test_range_dead_edge () =
  let cfg = Cfg.create () in
  let b1 = Cfg.add_block cfg (Dfg.create ()) Cfg.Halt in
  let b2 = Cfg.add_block cfg (Dfg.create ()) Cfg.Halt in
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Const 1) [] i8 in
  let b = Dfg.add g (Op.Const 2) [] i8 in
  let c = Dfg.add g (Op.Cmp Op.Clt) [ a; b ] Ast.Tbool in
  let b0 = Cfg.add_block cfg g (Cfg.Branch (c, b1, b2)) in
  Cfg.set_entry cfg b0;
  check_code "1 < 2 never false" "RANGE002" (Width_check.check cfg)

let test_range_constant_write () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Const 2) [] i8 in
  let b = Dfg.add g (Op.Const 3) [] i8 in
  let x = Dfg.add g Op.Add [ a; b ] i8 in
  ignore (Dfg.add g (Op.Write "v") [ x ] i8);
  check_code "v := 2 + 3" "RANGE003" (Width_check.check (halt_block g))

let test_range_div_by_zero () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i8 in
  let d = Dfg.add g (Op.Read "d") [] i8 in
  (* no ports: [d] spans the full signed range, including zero *)
  let q = Dfg.add g Op.Div [ a; d ] i8 in
  ignore (Dfg.add g (Op.Write "q") [ q ] i8);
  check_code "unconstrained divisor" "RANGE004" (Width_check.check (halt_block g))

let test_width_certain_wrap () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Const 100) [] i8 in
  let x = Dfg.add g Op.Add [ a; a ] i8 in
  ignore (Dfg.add g (Op.Write "v") [ x ] i8);
  check_code "100 + 100 in 8 bits" "WIDTH001" (Width_check.check (halt_block g))

let test_width_oversized_variable () =
  let g = Dfg.create () in
  let c = Dfg.add g (Op.Const 3) [] i8 in
  ignore (Dfg.add g (Op.Write "v") [ c ] i8);
  (* zero-initialised store: v only ever holds 0 or 3 *)
  check_code "8-bit v holds 3" "WIDTH002" (Width_check.check ~ports:[] (halt_block g))

let test_width_full_shift () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i8 in
  let k = Dfg.add g (Op.Const 8) [] i8 in
  let x = Dfg.add g Op.Shl [ a; k ] i8 in
  ignore (Dfg.add g (Op.Write "v") [ x ] i8);
  check_code "a << 8 at 8 bits" "WIDTH003" (Width_check.check (halt_block g))

(* range facts feed the aggressive-level constant folder: the folded
   design must still agree with the unoptimized behavioral reference *)
let test_range_fold_cosim () =
  List.iter
    (fun (name, src) ->
      let passes = List.assoc "aggressive" Hls_transform.Passes.named_pipelines in
      let options = { Flow.default_options with Flow.passes } in
      let d = Flow.synthesize ~options src in
      match Flow.verify ~runs:3 d with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s (aggressive): %s" name e))
    Workloads.all

(* narrowing is area-only: bit-identical designs, never larger *)
let test_narrow_cosim_and_area () =
  List.iter
    (fun (name, src) ->
      let base = Flow.synthesize src in
      let narrow =
        Flow.synthesize ~options:{ Flow.default_options with Flow.narrow = true } src
      in
      (match Flow.verify ~runs:3 narrow with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s (narrow): %s" name e));
      Alcotest.(check bool)
        (Printf.sprintf "%s: narrowed area never larger" name)
        true
        (narrow.Flow.estimate.Hls_rtl.Estimate.total_area
        <= base.Flow.estimate.Hls_rtl.Estimate.total_area))
    Workloads.all

(* ---- schedule mutations ---- *)

let chain_dfg () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i8 in
  let b = Dfg.add g (Op.Read "b") [] i8 in
  let x = Dfg.add g Op.Add [ a; b ] i8 in
  let y = Dfg.add g Op.Add [ x; b ] i8 in
  ignore (Dfg.add g (Op.Write "out") [ y ] i8);
  (g, x, y)

let test_sched_dependence_violation () =
  let g, _, _ = chain_dfg () in
  (* y consumes x's value in the very step x computes it *)
  let sched = Hls_sched.Schedule.make g ~steps:(fun _ -> 1) in
  check_code "same step" "SCHED001" (Sched_check.check_block ~bid:0 sched)

let test_sched_over_limit () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i8 in
  let b = Dfg.add g (Op.Read "b") [] i8 in
  let x = Dfg.add g Op.Add [ a; b ] i8 in
  let y = Dfg.add g Op.Sub [ a; b ] i8 in
  ignore (Dfg.add g (Op.Write "o1") [ x ] i8);
  ignore (Dfg.add g (Op.Write "o2") [ y ] i8);
  let sched = Hls_sched.Schedule.make g ~steps:(fun _ -> 1) in
  let ds = Sched_check.check_block ~limits:(Hls_sched.Limits.Total 1) ~bid:0 sched in
  check_code "two alu ops, one unit" "SCHED002" ds;
  check_clean "same schedule, two units"
    (Sched_check.check_block ~limits:(Hls_sched.Limits.Total 2) ~bid:0 sched)

let test_sched_empty_step () =
  let g, x, y = chain_dfg () in
  let sched =
    Hls_sched.Schedule.make g ~steps:(fun n -> if n = x then 1 else if n = y then 3 else 1)
  in
  check_code "hole at step 2" "SCHED003" (Sched_check.check_block ~bid:0 sched)

(* ---- allocation mutations (on a real design) ---- *)

let design = lazy (Flow.synthesize Workloads.diffeq)

let test_alloc_unbound_op () =
  let d = Lazy.force design in
  let fu = { d.Flow.fu with Hls_alloc.Fu_alloc.instances = [] } in
  check_code "no instances" "ALLOC003" (Alloc_check.check_fu d.Flow.sched fu)

let mutate_first_instance f (fu : Hls_alloc.Fu_alloc.t) =
  match fu.Hls_alloc.Fu_alloc.instances with
  | inst :: rest -> { fu with Hls_alloc.Fu_alloc.instances = f inst :: rest }
  | [] -> Alcotest.fail "design has no functional units"

let test_alloc_wrong_class () =
  let d = Lazy.force design in
  let flip cls = if cls = Op.C_mul then Op.C_alu else Op.C_mul in
  let fu =
    mutate_first_instance
      (fun inst -> { inst with Hls_alloc.Fu_alloc.fu_cls = flip inst.Hls_alloc.Fu_alloc.fu_cls })
      d.Flow.fu
  in
  check_code "class flip" "ALLOC001" (Alloc_check.check_fu d.Flow.sched fu)

let test_alloc_slot_clash () =
  let d = Lazy.force design in
  let fu =
    mutate_first_instance
      (fun inst ->
        match inst.Hls_alloc.Fu_alloc.ops with
        | r :: _ -> { inst with Hls_alloc.Fu_alloc.ops = r :: inst.Hls_alloc.Fu_alloc.ops }
        | [] -> Alcotest.fail "unit binds no operations")
      d.Flow.fu
  in
  check_code "duplicated op_ref" "ALLOC002" (Alloc_check.check_fu d.Flow.sched fu)

let test_alloc_stale_step () =
  let d = Lazy.force design in
  let fu =
    mutate_first_instance
      (fun inst ->
        match inst.Hls_alloc.Fu_alloc.ops with
        | r :: rest ->
            {
              inst with
              Hls_alloc.Fu_alloc.ops =
                { r with Hls_alloc.Fu_alloc.step = r.Hls_alloc.Fu_alloc.step + 1 } :: rest;
            }
        | [] -> Alcotest.fail "unit binds no operations")
      d.Flow.fu
  in
  check_code "step bumped" "ALLOC004" (Alloc_check.check_fu d.Flow.sched fu)

let test_alloc_missing_track () =
  let d = Lazy.force design in
  let ds =
    Alloc_check.check_registers d.Flow.sched
      ~temp_track:(fun _ _ -> None)
      ~groups:(Hls_alloc.Reg_alloc.variable_groups d.Flow.regs)
      ~outputs:(Flow.output_names d.Flow.prog)
  in
  check_code "all tracks dropped" "ALLOC006" ds

let test_alloc_overlapping_tracks () =
  let d = Lazy.force design in
  let ds =
    Alloc_check.check_registers d.Flow.sched
      ~temp_track:(fun _ _ -> Some 0)
      ~groups:(Hls_alloc.Reg_alloc.variable_groups d.Flow.regs)
      ~outputs:(Flow.output_names d.Flow.prog)
  in
  check_code "all temps on one track" "ALLOC005" ds

let test_alloc_interfering_group () =
  let d = Lazy.force design in
  let groups = Hls_alloc.Reg_alloc.variable_groups d.Flow.regs in
  let ds =
    Alloc_check.check_registers d.Flow.sched
      ~temp_track:(Hls_alloc.Reg_alloc.temp_track d.Flow.regs)
      ~groups:[ List.concat groups ]
      ~outputs:(Flow.output_names d.Flow.prog)
  in
  check_code "all variables merged" "ALLOC007" ds

(* Generated program 4554 once put k1 and p in one register: block 3
   writes k1 at step 1 and reads p at step 2, inside a branch random
   vectors never take, so only the step-boundary check sees it. *)
let test_alloc_intra_block_sharing () =
  let d = Result.get_ok (Flow.synthesize_program_result (Gen.program_of_seed 4554)) in
  let check groups =
    Alloc_check.check_registers d.Flow.sched
      ~temp_track:(Hls_alloc.Reg_alloc.temp_track d.Flow.regs)
      ~groups ~outputs:(Flow.output_names d.Flow.prog)
  in
  check_clean "the allocator's grouping" (check (Hls_alloc.Reg_alloc.variable_groups d.Flow.regs));
  check_code "k1 and p merged" "ALLOC007"
    (check [ [ "a" ]; [ "b" ]; [ "k0" ]; [ "k1"; "p" ]; [ "o1" ]; [ "o2" ]; [ "q" ]; [ "r" ] ])

let prop_register_rules_clean =
  QCheck.Test.make ~name:"random programs pass the register rules" ~count:40
    Gen.program_arbitrary (fun seed ->
      match Flow.synthesize_program_result (Gen.program_of_seed seed) with
      | Error _ -> QCheck.Test.fail_report "synthesis failed"
      | Ok d -> (
          match
            List.filter
              (fun (x : D.t) ->
                List.mem x.D.code [ "ALLOC005"; "ALLOC006"; "ALLOC007"; "ALLOC008" ])
              (Flow.lint d)
          with
          | [] -> true
          | ds -> QCheck.Test.fail_reportf "%s" (String.concat "; " (List.map D.to_string ds))))

let test_alloc_transfer_drift () =
  let d = Lazy.force design in
  let check given =
    Alloc_check.check_transfers d.Flow.sched ~fu:d.Flow.fu ~regs:d.Flow.regs given
  in
  (match d.Flow.transfers with
  | t :: rest ->
      check_code "dropped transfer" "ALLOC009" (check rest);
      check_code "duplicated transfer" "ALLOC010" (check (t :: t :: rest))
  | [] -> Alcotest.fail "design has no transfers");
  check_clean "unmutated transfers" (check d.Flow.transfers)

(* ---- controller mutations ---- *)

let st sid = { Hls_ctrl.Fsm.sid; block = 0; step = sid + 1 }
let tr t_from t_guard t_to = { Hls_ctrl.Fsm.t_from; t_guard; t_to }

let test_ctrl_no_outgoing () =
  let ds =
    Ctrl_check.check_fsm ~states:[ st 0; st 1 ]
      ~transitions:[ tr 0 Hls_ctrl.Fsm.G_always 1 ]
      ~entry:0
  in
  check_code "wedged state" "CTRL003" ds

let test_ctrl_conflicting_transitions () =
  let ds =
    Ctrl_check.check_fsm ~states:[ st 0; st 1 ]
      ~transitions:
        [
          tr 0 Hls_ctrl.Fsm.G_always 1;
          tr 0 Hls_ctrl.Fsm.G_always 0;
          tr 1 Hls_ctrl.Fsm.G_always 1;
        ]
      ~entry:0
  in
  check_code "two unconditional exits" "CTRL002" ds

let test_ctrl_single_polarity () =
  let ds =
    Ctrl_check.check_fsm ~states:[ st 0; st 1 ]
      ~transitions:
        [ tr 0 (Hls_ctrl.Fsm.G_cond (true, 0)) 1; tr 1 Hls_ctrl.Fsm.G_always 1 ]
      ~entry:0
  in
  check_code "no false edge" "CTRL004" ds

let test_ctrl_bad_endpoint () =
  let ds =
    Ctrl_check.check_fsm ~states:[ st 0 ] ~transitions:[ tr 0 Hls_ctrl.Fsm.G_always 9 ]
      ~entry:0
  in
  check_code "edge to 9" "CTRL005" ds

let test_ctrl_unreachable_state () =
  let ds =
    Ctrl_check.check_fsm
      ~states:[ st 0; st 1; st 2 ]
      ~transitions:
        [
          tr 0 Hls_ctrl.Fsm.G_always 0;
          tr 1 Hls_ctrl.Fsm.G_always 2;
          tr 2 Hls_ctrl.Fsm.G_always 1;
        ]
      ~entry:0
  in
  check_code "island 1<->2" "CTRL001" ds

let test_ctrl_code_collision () =
  let ds = Ctrl_check.check_encoding ~states:[ st 0; st 1 ] ~code:(fun _ -> 0) in
  check_code "constant encoder" "CTRL006" ds

let test_ctrl_next_state_disagrees () =
  let states = [ st 0; st 1 ] in
  let transitions = [ tr 0 Hls_ctrl.Fsm.G_always 1; tr 1 Hls_ctrl.Fsm.G_always 1 ] in
  let ds =
    Ctrl_check.check_next ~states ~transitions ~next:(fun ~state:_ ~conds:_ -> 0)
  in
  check_code "next always 0" "CTRL007" ds;
  check_clean "faithful next"
    (Ctrl_check.check_next ~states ~transitions ~next:(fun ~state:_ ~conds:_ -> 1))

let test_ctrl_microcode_misfit () =
  let fields = [ { Hls_ctrl.Microcode.fname = "reg_en"; fwidth = 2 } ] in
  check_code "value 5 in 2 bits" "CTRL008"
    (Ctrl_check.check_microcode ~fields ~words:[| [ 5 ] |]);
  check_code "wrong field count" "CTRL008"
    (Ctrl_check.check_microcode ~fields ~words:[| [ 1; 2 ] |])

let test_ctrl_dead_field () =
  let fields = [ { Hls_ctrl.Microcode.fname = "x"; fwidth = 1 } ] in
  check_code "constant field" "CTRL009"
    (Ctrl_check.check_microcode ~fields ~words:[| [ 1 ]; [ 1 ] |])

let test_ctrl_microcode_dead_resource () =
  let d = Lazy.force design in
  let _, words = Flow.microcode_image d in
  let n_regs = Array.length d.Flow.datapath.Hls_rtl.Datapath.regs in
  (* set a reg_en bit some state's datapath never loads *)
  let mutated = ref false in
  let words =
    Array.map
      (fun word ->
        match word with
        | [ enables; op; br ] when not !mutated ->
            let rec free i =
              if i >= n_regs then None
              else if enables land (1 lsl i) = 0 then Some i
              else free (i + 1)
            in
            (match free 0 with
            | Some i ->
                mutated := true;
                [ enables lor (1 lsl i); op; br ]
            | None -> word)
        | word -> word)
      words
  in
  Alcotest.(check bool) "found a bit to flip" true !mutated;
  check_code "phantom enable" "CTRL010" (Flow.lint_microcode d ~words)

(* More registers than an [int] has bits: an 80-tap FIR keeps every
   tap in its own register, so its enables span two [reg_en] fields and
   the design still lints clean. A phantom enable in the second field
   still fires CTRL010. *)
let test_ctrl_microcode_wide_enables () =
  let taps = 80 in
  let xs = List.init taps (Printf.sprintf "x%d") in
  let src =
    Printf.sprintf
      "module fir%d(input %s: fix<8,24>; output y: fix<8,24>);\nbegin\n  y := %s;\nend\n"
      taps (String.concat ", " xs)
      (String.concat " + "
         (List.mapi (fun i x -> Printf.sprintf "0.%04d * %s" (100 + (37 * i)) x) xs))
  in
  let d = Flow.synthesize src in
  let n_regs = Array.length d.Flow.datapath.Hls_rtl.Datapath.regs in
  Alcotest.(check bool) "more than 62 registers" true (n_regs > 62);
  let fields, words = Flow.microcode_image d in
  Alcotest.(check (list string)) "two enable fields" [ "reg_en"; "reg_en1"; "fu_op"; "branch" ]
    (List.map (fun f -> f.Hls_ctrl.Microcode.fname) fields);
  check_clean "the image's fields" (Ctrl_check.check_microcode ~fields ~words);
  check_clean "the design" (Flow.lint d);
  (* the last register's enable is bit [n_regs - 63] of the second field *)
  let last = 1 lsl (n_regs - 1 - (Sys.int_size - 1)) in
  let phantom =
    Array.map
      (fun word ->
        match word with
        | [ en0; en1; op; br ] when en1 land last = 0 -> [ en0; en1 lor last; op; br ]
        | word -> word)
      words
  in
  check_code "phantom enable past bit 62" "CTRL010" (Flow.lint_microcode d ~words:phantom)

(* ---- lint driver ---- *)

let test_lint_rule_table () =
  let codes = List.map fst Lint.rules in
  Alcotest.(check int) "codes unique" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  Alcotest.(check bool) "covers all stages" true
    (List.for_all
       (fun prefix ->
         List.exists (fun c -> String.length c > 4 && String.sub c 0 4 = prefix) codes)
       [ "CDFG"; "SCHE"; "ALLO"; "CTRL" ])

let test_lint_errors_propagate () =
  let d = Lazy.force design in
  let broken = { d with Flow.transfers = List.tl d.Flow.transfers } in
  match D.errors (Flow.lint broken) with
  | [] -> Alcotest.fail "mutated design passed lint"
  | ds -> check_code "error list" "ALLOC009" ds

let test_lint_floor () =
  let d = Lazy.force design in
  let all = Lint.run d in
  let errs = Lint.run ~floor:D.Error d in
  Alcotest.(check bool) "floor is a subset" true (List.length errs <= List.length all);
  Alcotest.(check (list string)) "design has no errors" [] (List.map D.to_string errs)

let test_verify_flag () =
  (* ~verify:true must pass on a clean design, through Flow and Dse,
     cache hits included *)
  ignore (Flow.synthesize ~verify:true Workloads.gcd);
  let eng =
    Dse.create ~config:{ Dse.default_config with Dse.verify = true } Workloads.gcd
  in
  let o = Flow.default_options in
  ignore (eval_ok eng o);
  ignore (eval_ok eng o)

(* ---- the clean matrix ---- *)

let test_clean_matrix () =
  let schedulers =
    [
      Flow.Asap;
      Flow.List_path;
      Flow.List_mobility;
      Flow.Force_directed 0;
      Flow.Freedom;
      Flow.Branch_bound;
      Flow.Ilp_exact;
      Flow.Trans_parallel;
      Flow.Trans_serial;
    ]
  in
  let allocators = [ `Clique; `Greedy_min_mux; `Greedy_first_fit ] in
  List.iter
    (fun (name, src) ->
      let eng = Dse.create src in
      List.iter
        (fun scheduler ->
          List.iter
            (fun allocator ->
              let options = { Flow.default_options with Flow.scheduler; allocator } in
              let d = eval_ok eng options in
              let offenders = D.filter ~floor:D.Warning (Flow.lint d) in
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s" name (Flow.scheduler_to_string scheduler))
                []
                (List.map D.to_string offenders))
            allocators)
        schedulers)
    Workloads.all

let () =
  Alcotest.run "analysis"
    [
      ("diagnostic", [ Alcotest.test_case "basics" `Quick test_diag_basics ]);
      ( "cdfg",
        [
          Alcotest.test_case "dangling target" `Quick test_cdfg_dangling_target;
          Alcotest.test_case "bad branch cond" `Quick test_cdfg_bad_branch_cond;
          Alcotest.test_case "unreachable block" `Quick test_cdfg_unreachable_block;
          Alcotest.test_case "type rules" `Quick test_cdfg_type_rules;
        ] );
      ( "range",
        [
          Alcotest.test_case "constant comparison" `Quick test_range_constant_cmp;
          Alcotest.test_case "dead branch edge" `Quick test_range_dead_edge;
          Alcotest.test_case "constant write" `Quick test_range_constant_write;
          Alcotest.test_case "possible zero divisor" `Quick test_range_div_by_zero;
          Alcotest.test_case "certain wrap" `Quick test_width_certain_wrap;
          Alcotest.test_case "oversized variable" `Quick test_width_oversized_variable;
          Alcotest.test_case "full-width shift" `Quick test_width_full_shift;
          Alcotest.test_case "aggressive fold cosim" `Quick test_range_fold_cosim;
          Alcotest.test_case "narrow cosim and area" `Quick test_narrow_cosim_and_area;
        ] );
      ( "sched",
        [
          Alcotest.test_case "dependence violation" `Quick test_sched_dependence_violation;
          Alcotest.test_case "over limit" `Quick test_sched_over_limit;
          Alcotest.test_case "empty step" `Quick test_sched_empty_step;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "unbound op" `Quick test_alloc_unbound_op;
          Alcotest.test_case "wrong class" `Quick test_alloc_wrong_class;
          Alcotest.test_case "slot clash" `Quick test_alloc_slot_clash;
          Alcotest.test_case "stale step" `Quick test_alloc_stale_step;
          Alcotest.test_case "missing track" `Quick test_alloc_missing_track;
          Alcotest.test_case "overlapping tracks" `Quick test_alloc_overlapping_tracks;
          Alcotest.test_case "interfering group" `Quick test_alloc_interfering_group;
          Alcotest.test_case "sharing inside a block" `Quick test_alloc_intra_block_sharing;
          QCheck_alcotest.to_alcotest prop_register_rules_clean;
          Alcotest.test_case "transfer drift" `Quick test_alloc_transfer_drift;
        ] );
      ( "ctrl",
        [
          Alcotest.test_case "no outgoing" `Quick test_ctrl_no_outgoing;
          Alcotest.test_case "conflicting transitions" `Quick
            test_ctrl_conflicting_transitions;
          Alcotest.test_case "single polarity" `Quick test_ctrl_single_polarity;
          Alcotest.test_case "bad endpoint" `Quick test_ctrl_bad_endpoint;
          Alcotest.test_case "unreachable state" `Quick test_ctrl_unreachable_state;
          Alcotest.test_case "code collision" `Quick test_ctrl_code_collision;
          Alcotest.test_case "next-state disagrees" `Quick test_ctrl_next_state_disagrees;
          Alcotest.test_case "microcode misfit" `Quick test_ctrl_microcode_misfit;
          Alcotest.test_case "dead field" `Quick test_ctrl_dead_field;
          Alcotest.test_case "dead resource" `Quick test_ctrl_microcode_dead_resource;
          Alcotest.test_case "enables past one int" `Quick test_ctrl_microcode_wide_enables;
        ] );
      ( "lint",
        [
          Alcotest.test_case "rule table" `Quick test_lint_rule_table;
          Alcotest.test_case "errors propagate" `Quick test_lint_errors_propagate;
          Alcotest.test_case "severity floor" `Quick test_lint_floor;
          Alcotest.test_case "verify flag" `Quick test_verify_flag;
          Alcotest.test_case "clean matrix" `Quick test_clean_matrix;
        ] );
    ]
