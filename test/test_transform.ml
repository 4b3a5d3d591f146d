(* Tests for the optimization passes: each pass's specific rewrites on
   handwritten inputs, plus the central property — every pass pipeline
   preserves the program's observable behavior (CDFG interpreter
   equivalence on random inputs). *)

open Hls_lang
open Hls_cdfg
open Hls_transform

let compile src = snd (Compile.compile_source src)

let compile_prog p = Compile.compile (Typecheck.check p)

let compute_ops cfg =
  List.fold_left
    (fun acc bid -> acc + List.length (Dfg.compute_ops (Cfg.dfg cfg bid)))
    0 (Cfg.block_ids cfg)

let count_op cfg pred =
  List.fold_left
    (fun acc bid ->
      Dfg.fold (fun acc _ n -> if pred n.Dfg.op then acc + 1 else acc) acc (Cfg.dfg cfg bid))
    0 (Cfg.block_ids cfg)

(* ---- const fold ---- *)

let test_fold_arith () =
  let cfg = compile "module m(output y: int<8>); begin y := 2 + 3 * 4; end" in
  ignore (Const_fold.run cfg);
  let g = Cfg.dfg cfg 0 in
  (* the write's argument is the constant 14 *)
  match Dfg.writes g with
  | [ ("y", w) ] -> (
      match Dfg.op g (List.hd (Dfg.args g w)) with
      | Op.Const 14 -> ()
      | op -> Alcotest.failf "got %s" (Op.to_string op))
  | _ -> Alcotest.fail "one write expected"

let test_fold_identities () =
  let cfg =
    compile
      "module m(input a: int<8>; output y: int<8>); begin y := (a + 0) * 1 - (a - a); end"
  in
  ignore (Const_fold.run cfg);
  ignore (Const_fold.run cfg);
  let adds =
    count_op cfg (function Op.Add | Op.Sub | Op.Mul -> true | _ -> false)
  in
  Alcotest.(check int) "all identities folded" 0 adds

let test_fold_branch () =
  let cfg =
    compile "module m(output y: int<8>); begin if 1 > 2 then y := 1; else y := 2; end; end"
  in
  ignore (Const_fold.run cfg);
  (match Cfg.term cfg 0 with
  | Cfg.Goto b -> Alcotest.(check int) "takes else branch" 2 b
  | _ -> Alcotest.fail "branch should fold to goto");
  let pruned, changed = Clean_cfg.prune cfg in
  Alcotest.(check bool) "pruned" true changed;
  Alcotest.(check int) "then-block dropped" 3 (Cfg.n_blocks pruned)

(* ---- cse ---- *)

let test_cse () =
  let cfg =
    compile
      "module m(input a, b: int<8>; output y: int<8>); begin y := (a * b) + (a * b); end"
  in
  let before = count_op cfg (function Op.Mul -> true | _ -> false) in
  ignore (Cse.run cfg);
  let after = count_op cfg (function Op.Mul -> true | _ -> false) in
  Alcotest.(check int) "two muls before" 2 before;
  Alcotest.(check int) "one mul after" 1 after

(* ---- dce ---- *)

let test_dce_dead_write () =
  let cfg =
    compile
      "module m(input a: int<8>; output y: int<8>); var t: int<8>; begin t := a * a; y := a + 1; end"
  in
  ignore (Dead_code.run ~outputs:[ "y" ] cfg);
  Alcotest.(check int) "mul removed" 0 (count_op cfg (function Op.Mul -> true | _ -> false));
  Alcotest.(check int) "write t removed" 0
    (count_op cfg (function Op.Write "t" -> true | _ -> false))

let test_dce_keeps_live () =
  let cfg = compile Hls_core.Workloads.sqrt_newton in
  let before = compute_ops cfg in
  ignore (Dead_code.run ~outputs:[ "y" ] cfg);
  Alcotest.(check int) "nothing dead in sqrt" before (compute_ops cfg)

(* ---- strength ---- *)

let test_strength_mul_to_shift () =
  let cfg =
    compile "module m(input x: fix<8,24>; output y: fix<8,24>); begin y := 0.5 * x; end"
  in
  ignore (Rules.run_rules (Rules.group "strength") cfg);
  Alcotest.(check int) "mul gone" 0 (count_op cfg (function Op.Mul -> true | _ -> false));
  Alcotest.(check int) "shift present" 1
    (count_op cfg (function Op.Shr -> true | _ -> false))

let test_strength_int_mul () =
  let cfg = compile "module m(input x: int<8>; output y: int<8>); begin y := x * 8; end" in
  ignore (Rules.run_rules (Rules.group "strength") cfg);
  Alcotest.(check int) "shl" 1 (count_op cfg (function Op.Shl -> true | _ -> false))

let test_strength_incr_zdetect () =
  let cfg =
    compile
      "module m(input x: int<8>; output y: int<8>; output z: bool); begin y := x + 1; z := x = 0; end"
  in
  ignore (Rules.run_rules (Rules.group "strength") cfg);
  Alcotest.(check int) "incr" 1 (count_op cfg (function Op.Incr -> true | _ -> false));
  Alcotest.(check int) "zdetect" 1
    (count_op cfg (function Op.Zdetect -> true | _ -> false))

let test_strength_non_pow2_untouched () =
  let cfg = compile "module m(input x: int<8>; output y: int<8>); begin y := x * 3; end" in
  ignore (Rules.run_rules (Rules.group "strength") cfg);
  Alcotest.(check int) "mul stays" 1 (count_op cfg (function Op.Mul -> true | _ -> false))

(* ---- loop recode (the paper's transformation) ---- *)

let test_loop_recode_sqrt () =
  let cfg = compile Hls_core.Workloads.sqrt_newton in
  ignore (Passes.run_spec Passes.default_pipeline ~outputs:[ "y" ] cfg);
  let changed = Loop_recode.run ~protected:[ "y" ] cfg in
  Alcotest.(check bool) "recoded" true changed;
  Alcotest.(check int) "zdetect" 1
    (count_op cfg (function Op.Zdetect -> true | _ -> false));
  Alcotest.(check int) "no compare left" 0
    (count_op cfg (function Op.Cmp _ -> true | _ -> false));
  let body = Cfg.dfg cfg 1 in
  let narrow_types =
    Dfg.fold
      (fun acc _ n ->
        match (n.Dfg.op, n.Dfg.ty) with
        | Op.Read "i", ty | Op.Write "i", ty -> ty :: acc
        | _ -> acc)
      [] body
  in
  List.iter
    (fun ty -> Alcotest.(check bool) "i is int<2>" true (ty = Ast.Tint 2))
    narrow_types;
  Alcotest.(check bool) "found i nodes" true (narrow_types <> [])

let test_loop_recode_requires_pow2 () =
  let src =
    "module m(input x: int<8>; output y: int<8>); var i: int<8>; begin y := x; i := 0; repeat y := y + 1; i := i + 1; until i > 2; end"
  in
  let cfg = compile src in
  ignore (Passes.run_spec Passes.default_pipeline ~outputs:[ "y" ] cfg);
  Alcotest.(check bool) "not recoded (trip 3)" false (Loop_recode.run ~protected:[ "y" ] cfg)

(* ---- unroll ---- *)

let test_unroll_sqrt () =
  let cfg = compile Hls_core.Workloads.sqrt_newton in
  let cfg, changed = Unroll.unroll_all cfg in
  Alcotest.(check bool) "unrolled" true changed;
  let trips = List.filter_map (fun bid -> Cfg.trip_count cfg bid) (Cfg.block_ids cfg) in
  Alcotest.(check (list int)) "no loops left" [] trips;
  Alcotest.(check int) "blocks" 6 (Cfg.n_blocks cfg)

let test_unroll_then_merge_single_block () =
  let cfg = compile Hls_core.Workloads.sqrt_newton in
  let cfg = Passes.run_spec (List.assoc "aggressive" Passes.named_pipelines) ~outputs:[ "y" ] cfg in
  Alcotest.(check bool) "few blocks" true (Cfg.n_blocks cfg <= 2);
  let divs = count_op cfg (function Op.Div -> true | _ -> false) in
  Alcotest.(check int) "4 divisions (one per iteration)" 4 divs;
  Alcotest.(check int) "counter gone" 0
    (count_op cfg (function Op.Read "i" | Op.Write "i" -> true | _ -> false))

let test_unroll_while_style () =
  let src =
    "module m(input a: int<8>; output y: int<8>); var i: int<8>; begin y := a; i := 0; while i < 3 do y := y + y; i := i + 1; end; end"
  in
  let cfg = compile src in
  let cfg, changed = Unroll.unroll_all cfg in
  Alcotest.(check bool) "unrolled" true changed;
  Cfg.validate cfg;
  let trips = List.filter_map (fun bid -> Cfg.trip_count cfg bid) (Cfg.block_ids cfg) in
  Alcotest.(check (list int)) "no loops left" [] trips

(* ---- tree height ---- *)

let test_tree_height_chain () =
  let cfg =
    compile
      "module m(input a, b, c, d, e, f, g2, h: int<16>; output y: int<16>); begin y := a + b + c + d + e + f + g2 + h; end"
  in
  let depth_of cfg =
    List.fold_left
      (fun acc bid ->
        max acc
          (Hls_sched.Depgraph.critical_length
             (Hls_sched.Depgraph.of_dfg (Cfg.dfg cfg bid))))
      0 (Cfg.block_ids cfg)
  in
  Alcotest.(check int) "chain depth" 7 (depth_of cfg);
  Alcotest.(check bool) "changed" true (Rules.run_rules [ Rules.add_rebalance ] cfg);
  Alcotest.(check int) "balanced depth" 3 (depth_of cfg)

let test_tree_height_respects_sharing () =
  let cfg =
    compile
      "module m(input a, b, c: int<16>; output y, z: int<16>); var t: int<16>; begin t := a + b; y := t + c; z := t; end"
  in
  Alcotest.(check bool) "no rebalance across shared value" false (Rules.run_rules [ Rules.add_rebalance ] cfg)

let test_tree_height_not_fix_mul () =
  let cfg =
    compile
      "module m(input a, b, c, d: fix<8,8>; output y: fix<8,8>); begin y := a * b * c * d; end"
  in
  Alcotest.(check bool) "fix mul untouched" false (Rules.run_rules [ Rules.add_rebalance ] cfg)

(* ---- merge blocks ---- *)

let test_merge_goto_chain () =
  (* unrolled loop copies form a single-predecessor Goto chain *)
  let cfg = compile Hls_core.Workloads.sqrt_newton in
  let cfg, unrolled = Unroll.unroll_all cfg in
  Alcotest.(check bool) "unrolled" true unrolled;
  let n_before = Cfg.n_blocks cfg in
  let merged, changed = Clean_cfg.merge cfg in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check bool) "fewer blocks" true (Cfg.n_blocks merged < n_before);
  Cfg.validate merged;
  (* no merge opportunity in a plain diamond *)
  let diamond =
    compile
      "module m(input a: int<8>; output y: int<8>); begin if a > 0 then y := 1; else y := 2; end; y := y + 1; end"
  in
  let _, changed = Clean_cfg.merge diamond in
  Alcotest.(check bool) "diamond untouched" false changed

let inputs_of rng =
  [ ("a", Random.State.int rng 1000); ("b", 1 + Random.State.int rng 1000) ]

let equal_outputs outs1 outs2 names =
  List.for_all (fun n -> List.assoc_opt n outs1 = List.assoc_opt n outs2) names

(* ---- if-conversion ---- *)

let test_if_convert_diamond () =
  let cfg =
    compile
      "module m(input a, b: int<8>; output y: int<8>); begin if a > b then y := a + 1; else y := b * 2; end; y := y + a; end"
  in
  let n_before = Cfg.n_blocks cfg in
  let cfg, changed = If_convert.run cfg in
  Alcotest.(check bool) "converted" true changed;
  Alcotest.(check bool) "fewer blocks" true (Cfg.n_blocks cfg < n_before);
  Cfg.validate cfg;
  Alcotest.(check int) "one mux" 1 (count_op cfg (function Op.Mux -> true | _ -> false));
  (* semantics on both branch directions *)
  List.iter
    (fun (a, b) ->
      let r = Hls_sim.Cfg_sim.run cfg ~inputs:[ ("a", a); ("b", b) ] in
      let expected = (if a > b then a + 1 else b * 2) + a in
      Alcotest.(check (option int))
        (Printf.sprintf "a=%d b=%d" a b)
        (Some (((expected + 128) mod 256) - 128))
        (List.assoc_opt "y" r))
    [ (5, 3); (3, 5); (4, 4) ]

let test_if_convert_no_else () =
  let cfg =
    compile
      "module m(input a: int<8>; output y: int<8>); begin y := a; if a > 0 then y := a + a; end; end"
  in
  let cfg, changed = If_convert.run cfg in
  Alcotest.(check bool) "converted" true changed;
  (* converted block + the (empty) exit block *)
  Alcotest.(check int) "two blocks" 2 (Cfg.n_blocks cfg);
  let merged, _ = Clean_cfg.merge cfg in
  Alcotest.(check int) "single block after merge" 1 (Cfg.n_blocks merged);
  let cfg = merged in
  List.iter
    (fun a ->
      let r = Hls_sim.Cfg_sim.run cfg ~inputs:[ ("a", a) ] in
      let expected = if a > 0 then a + a else a in
      Alcotest.(check (option int)) (Printf.sprintf "a=%d" a) (Some expected)
        (List.assoc_opt "y" r))
    [ 7; -3; 0 ]

let test_if_convert_refuses_division () =
  (* speculating a division could trap: must not convert *)
  let cfg =
    compile
      "module m(input a, b: int<8>; output y: int<8>); begin if b <> 0 then y := a / b; else y := 0; end; end"
  in
  let _, changed = If_convert.run cfg in
  Alcotest.(check bool) "not converted" false changed

let test_if_convert_refuses_loops () =
  let cfg = compile Hls_core.Workloads.gcd in
  let _, changed = If_convert.run cfg in
  (* gcd's diamond arms rejoin inside a loop; the inner diamond IS
     convertible (subtractions are safe) — conversion must keep the
     loop semantics *)
  if changed then begin
    let cfg, _ = If_convert.run cfg in
    let r = Hls_sim.Cfg_sim.run cfg ~inputs:[ ("a_in", 12); ("b_in", 18) ] in
    Alcotest.(check (option int)) "gcd still correct" (Some 6) (List.assoc_opt "g" r)
  end

let prop_if_convert_preserves =
  QCheck.Test.make ~name:"if-conversion preserves semantics" ~count:100
    Gen.program_arbitrary
    (fun seed ->
      let prog = Gen.program_of_seed seed in
      let cfg_ref = compile_prog prog in
      let cfg1 = compile_prog prog in
      let cfg1, _ = If_convert.run cfg1 in
      Cfg.validate cfg1;
      let rng = Random.State.make [| seed + 13 |] in
      List.for_all
        (fun _ ->
          let inputs = inputs_of rng in
          equal_outputs
            (Hls_sim.Cfg_sim.run cfg_ref ~inputs)
            (Hls_sim.Cfg_sim.run cfg1 ~inputs)
            [ "o1"; "o2" ])
        [ 1; 2; 3 ])

(* ---- declarative rules: soundness + guards ---- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let rule_pipeline name =
  { Passes.passes = [ "rule:" ^ name ]; fold_facts = false; extract = None }

(* every rule alone, through the full flow, stays bit-identical to the
   reference on every built-in workload (three-level co-simulation) *)
let test_each_rule_cosim () =
  List.iter
    (fun (r : Rules.t) ->
      let options =
        {
          Hls_core.Flow.default_options with
          Hls_core.Flow.passes = rule_pipeline r.Rules.name;
        }
      in
      List.iter
        (fun (wname, src) ->
          let d = Hls_core.Flow.synthesize ~options src in
          match Hls_core.Flow.verify ~runs:3 d with
          | Ok () -> ()
          | Error e -> Alcotest.failf "rule %s on %s: %s" r.Rules.name wname e)
        Hls_core.Workloads.all)
    Rules.all

let test_rule_mul_chain () =
  (* 5 = 4 + 1: a two-term shift/add chain replaces the multiplier *)
  let cfg = compile "module m(input x: int<8>; output y: int<8>); begin y := x * 5; end" in
  Alcotest.(check bool) "changed" true (Rules.run_rules [ Rules.mul_const_chain ] cfg);
  Alcotest.(check int) "mul gone" 0 (count_op cfg (function Op.Mul -> true | _ -> false));
  Alcotest.(check int) "shift present" 1
    (count_op cfg (function Op.Shl -> true | _ -> false));
  List.iter
    (fun x ->
      let r = Hls_sim.Cfg_sim.run cfg ~inputs:[ ("x", x) ] in
      Alcotest.(check (option int)) (Printf.sprintf "x=%d" x) (Some (x * 5))
        (List.assoc_opt "y" r))
    [ 3; -7; 10 ]

let test_rule_mul_chain_guard () =
  (* 11 is not 2^a +/- 2^b: the multiplier must stay *)
  let cfg = compile "module m(input x: int<8>; output y: int<8>); begin y := x * 11; end" in
  Alcotest.(check bool) "unchanged" false (Rules.run_rules [ Rules.mul_const_chain ] cfg);
  Alcotest.(check int) "mul stays" 1 (count_op cfg (function Op.Mul -> true | _ -> false))

let test_rule_div_guard () =
  let src = "module m(input x: int<8>; output y: int<8>); begin y := x / 4; end" in
  (* truncating division of a possibly-negative value is not a shift *)
  let cfg = compile src in
  Alcotest.(check bool) "unproven sign: untouched" false
    (Rules.run_rules [ Rules.div_pow2_shift ] cfg);
  Alcotest.(check int) "div stays" 1 (count_op cfg (function Op.Div -> true | _ -> false));
  (* with the numerator proven non-negative the rewrite fires *)
  let cfg = compile src in
  Alcotest.(check bool) "proven nonneg: rewritten" true
    (Rules.run_rules ~nonneg:(fun _ _ _ -> true) [ Rules.div_pow2_shift ] cfg);
  Alcotest.(check int) "div gone" 0 (count_op cfg (function Op.Div -> true | _ -> false));
  Alcotest.(check int) "shr" 1 (count_op cfg (function Op.Shr -> true | _ -> false));
  List.iter
    (fun x ->
      let r = Hls_sim.Cfg_sim.run cfg ~inputs:[ ("x", x) ] in
      Alcotest.(check (option int)) (Printf.sprintf "x=%d" x) (Some (x / 4))
        (List.assoc_opt "y" r))
    [ 0; 7; 100 ];
  (* a non-power-of-two divisor is never rewritten, proof or not *)
  let cfg3 = compile "module m(input x: int<8>; output y: int<8>); begin y := x / 3; end" in
  Alcotest.(check bool) "x/3 untouched" false
    (Rules.run_rules ~nonneg:(fun _ _ _ -> true) [ Rules.div_pow2_shift ] cfg3)

let test_rule_incr_decr_guards () =
  let cfg = compile "module m(input x: int<8>; output y: int<8>); begin y := x + 2; end" in
  Alcotest.(check bool) "x+2 not incr" false (Rules.run_rules [ Rules.add_one_incr ] cfg);
  let cfg = compile "module m(input x: int<8>; output y: int<8>); begin y := 1 - x; end" in
  Alcotest.(check bool) "1-x not decr" false (Rules.run_rules [ Rules.sub_one_decr ] cfg);
  Alcotest.(check int) "sub stays" 1 (count_op cfg (function Op.Sub -> true | _ -> false))

let test_rule_cmp_guard () =
  let cfg =
    compile "module m(input x: int<8>; output z: bool); begin z := x = 1; end"
  in
  Alcotest.(check bool) "x=1 not zdetect" false
    (Rules.run_rules [ Rules.cmp_zero_zdetect ] cfg);
  Alcotest.(check int) "no zdetect" 0
    (count_op cfg (function Op.Zdetect -> true | _ -> false))

let test_rule_cse_guard () =
  (* operand order matters: a-b and b-a are distinct expressions *)
  let cfg =
    compile
      "module m(input a, b: int<8>; output y: int<8>); begin y := (a - b) + (b - a); end"
  in
  Alcotest.(check bool) "no merge" false (Rules.run_rules [ Rules.cse_node ] cfg);
  Alcotest.(check int) "both subs stay" 2
    (count_op cfg (function Op.Sub -> true | _ -> false))

let test_cse_global_shares () =
  let src =
    "module m(input a, b: int<8>; output y: int<8>); var t: int<8>; begin t := a * b; \
     if a > 0 then y := a * b + 1; else y := 0 - t; end; end"
  in
  let cfg = compile src in
  Alcotest.(check int) "two muls before" 2
    (count_op cfg (function Op.Mul -> true | _ -> false));
  Alcotest.(check bool) "shared" true (Rules.cse_global cfg);
  Alcotest.(check int) "one mul after" 1
    (count_op cfg (function Op.Mul -> true | _ -> false));
  Cfg.validate cfg;
  List.iter
    (fun (a, b) ->
      let r = Hls_sim.Cfg_sim.run cfg ~inputs:[ ("a", a); ("b", b) ] in
      let expected = if a > 0 then (a * b) + 1 else -(a * b) in
      Alcotest.(check (option int))
        (Printf.sprintf "a=%d b=%d" a b)
        (Some expected) (List.assoc_opt "y" r))
    [ (3, 4); (-2, 5) ]

let test_cse_global_respects_clobber () =
  (* the predecessor overwrites u after computing u*b, so the committed
     variable no longer holds the expression — no sharing allowed *)
  let src =
    "module m(input a, b: int<8>; output y: int<8>); var t, u: int<8>; begin u := a; \
     t := u * b; u := b; if a > 0 then y := u * b; else y := 0; end; end"
  in
  let cfg = compile src in
  ignore (Rules.cse_global cfg);
  Cfg.validate cfg;
  List.iter
    (fun (a, b) ->
      let r = Hls_sim.Cfg_sim.run cfg ~inputs:[ ("a", a); ("b", b) ] in
      let expected = if a > 0 then b * b else 0 in
      Alcotest.(check (option int))
        (Printf.sprintf "a=%d b=%d" a b)
        (Some expected) (List.assoc_opt "y" r))
    [ (3, 4); (-1, 4) ]

let test_find_suggestion () =
  match Passes.find "stregth" with
  | Ok _ -> Alcotest.fail "typo should not resolve"
  | Error e ->
      Alcotest.(check (option string)) "suggestion" (Some "strength") e.Passes.suggestion;
      Alcotest.(check bool) "known names listed" true (e.Passes.known <> []);
      let msg = Passes.find_error_to_string e in
      Alcotest.(check bool) "message names the suggestion" true (contains msg "strength")

(* ---- cost-guided extraction ---- *)

let test_extract_area_rewrites_mul () =
  (* 6 = 4 + 2: under the area objective the shift/add chain beats the
     multiplier, and the multiplier class disappears from the block *)
  let cfg = compile "module m(input x: int<8>; output y: int<8>); begin y := x * 6; end" in
  Alcotest.(check bool) "changed" true (Extract.run ~objective:`Area cfg);
  Alcotest.(check int) "mul gone" 0 (count_op cfg (function Op.Mul -> true | _ -> false));
  Cfg.validate cfg;
  List.iter
    (fun x ->
      let r = Hls_sim.Cfg_sim.run cfg ~inputs:[ ("x", x) ] in
      Alcotest.(check (option int)) (Printf.sprintf "x=%d" x) (Some (x * 6))
        (List.assoc_opt "y" r))
    [ 5; -3; 0 ]

let test_extract_keeps_original_when_best () =
  (* nothing to gain: a plain add has no candidate alternatives *)
  let cfg =
    compile "module m(input a, b: int<8>; output y: int<8>); begin y := a + b; end"
  in
  Alcotest.(check bool) "unchanged" false (Extract.run ~objective:`Area cfg)

(* ---- semantic preservation (the big property) ---- *)

let preservation_property level seed =
  let prog = Gen.program_of_seed seed in
  let cfg_ref = compile_prog prog in
  let cfg_opt = compile_prog prog in
  let cfg_opt =
    Passes.run_spec (List.assoc level Passes.named_pipelines) ~outputs:[ "o1"; "o2" ] cfg_opt
  in
  Cfg.validate cfg_opt;
  let rng = Random.State.make [| seed + 7 |] in
  List.for_all
    (fun _ ->
      let inputs = inputs_of rng in
      let r1 = Hls_sim.Cfg_sim.run cfg_ref ~inputs in
      let r2 = Hls_sim.Cfg_sim.run cfg_opt ~inputs in
      equal_outputs r1 r2 [ "o1"; "o2" ])
    [ 1; 2; 3 ]

let prop_standard_preserves =
  QCheck.Test.make ~name:"standard pipeline preserves semantics" ~count:150
    Gen.program_arbitrary
    (preservation_property "standard")

let prop_aggressive_preserves =
  QCheck.Test.make ~name:"aggressive pipeline preserves semantics" ~count:150
    Gen.program_arbitrary
    (preservation_property "aggressive")

let prop_each_pass_preserves =
  QCheck.Test.make ~name:"each pass alone preserves semantics" ~count:60
    Gen.program_arbitrary
    (fun seed ->
      List.for_all
        (fun (pass : Passes.t) ->
          let prog = Gen.program_of_seed seed in
          let cfg_ref = compile_prog prog in
          let cfg1 = compile_prog prog in
          let cfg1, _ = pass.Passes.run ~outputs:[ "o1"; "o2" ] cfg1 in
          Cfg.validate cfg1;
          let rng = Random.State.make [| seed |] in
          let inputs = inputs_of rng in
          equal_outputs
            (Hls_sim.Cfg_sim.run cfg_ref ~inputs)
            (Hls_sim.Cfg_sim.run cfg1 ~inputs)
            [ "o1"; "o2" ])
        Passes.all)

let test_sqrt_all_levels_agree () =
  let ty = Ast.Tfix (8, 24) in
  List.iter
    (fun x ->
      let inputs = [ ("x", Hls_sim.Beh_sim.to_raw ty x) ] in
      let base = Hls_sim.Cfg_sim.run (compile Hls_core.Workloads.sqrt_newton) ~inputs in
      List.iter
        (fun level ->
          let cfg = compile Hls_core.Workloads.sqrt_newton in
          let cfg = Passes.run_spec (List.assoc level Passes.named_pipelines) ~outputs:[ "y" ] cfg in
          let r = Hls_sim.Cfg_sim.run cfg ~inputs in
          Alcotest.(check (option int))
            (Printf.sprintf "y at x=%f" x)
            (List.assoc_opt "y" base) (List.assoc_opt "y" r))
        [ "none"; "standard"; "aggressive" ])
    [ 0.0625; 0.3; 0.9 ]

let () =
  Alcotest.run "transform"
    [
      ( "const_fold",
        [
          Alcotest.test_case "arithmetic" `Quick test_fold_arith;
          Alcotest.test_case "identities" `Quick test_fold_identities;
          Alcotest.test_case "branch folding + prune" `Quick test_fold_branch;
        ] );
      ("cse", [ Alcotest.test_case "shared subexpression" `Quick test_cse ]);
      ( "dce",
        [
          Alcotest.test_case "dead write" `Quick test_dce_dead_write;
          Alcotest.test_case "keeps live" `Quick test_dce_keeps_live;
        ] );
      ( "strength",
        [
          Alcotest.test_case "0.5*x -> shift (paper)" `Quick test_strength_mul_to_shift;
          Alcotest.test_case "x*8 -> shl" `Quick test_strength_int_mul;
          Alcotest.test_case "incr / zdetect" `Quick test_strength_incr_zdetect;
          Alcotest.test_case "x*3 untouched" `Quick test_strength_non_pow2_untouched;
        ] );
      ( "loop_recode",
        [
          Alcotest.test_case "sqrt counter (paper)" `Quick test_loop_recode_sqrt;
          Alcotest.test_case "needs power-of-two trip" `Quick test_loop_recode_requires_pow2;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "sqrt x4" `Quick test_unroll_sqrt;
          Alcotest.test_case "unroll+merge straightline" `Quick test_unroll_then_merge_single_block;
          Alcotest.test_case "while-style" `Quick test_unroll_while_style;
        ] );
      ( "tree_height",
        [
          Alcotest.test_case "8-chain to depth 3" `Quick test_tree_height_chain;
          Alcotest.test_case "respects sharing" `Quick test_tree_height_respects_sharing;
          Alcotest.test_case "fix mul untouched" `Quick test_tree_height_not_fix_mul;
        ] );
      ("merge", [ Alcotest.test_case "goto chain" `Quick test_merge_goto_chain ]);
      ( "if_convert",
        [
          Alcotest.test_case "diamond" `Quick test_if_convert_diamond;
          Alcotest.test_case "if without else" `Quick test_if_convert_no_else;
          Alcotest.test_case "refuses division" `Quick test_if_convert_refuses_division;
          Alcotest.test_case "gcd inner diamond" `Quick test_if_convert_refuses_loops;
          QCheck_alcotest.to_alcotest prop_if_convert_preserves;
        ] );
      ( "rules",
        [
          Alcotest.test_case "each rule cosims on all workloads" `Slow test_each_rule_cosim;
          Alcotest.test_case "x*5 -> shift/add chain" `Quick test_rule_mul_chain;
          Alcotest.test_case "x*11 untouched (guard)" `Quick test_rule_mul_chain_guard;
          Alcotest.test_case "div guard needs nonneg proof" `Quick test_rule_div_guard;
          Alcotest.test_case "incr/decr guards" `Quick test_rule_incr_decr_guards;
          Alcotest.test_case "cmp guard" `Quick test_rule_cmp_guard;
          Alcotest.test_case "cse operand order guard" `Quick test_rule_cse_guard;
          Alcotest.test_case "cross-block sharing" `Quick test_cse_global_shares;
          Alcotest.test_case "sharing respects clobber" `Quick test_cse_global_respects_clobber;
          Alcotest.test_case "find suggests nearest pass" `Quick test_find_suggestion;
        ] );
      ( "extract",
        [
          Alcotest.test_case "area objective drops multiplier" `Quick
            test_extract_area_rewrites_mul;
          Alcotest.test_case "original kept when best" `Quick
            test_extract_keeps_original_when_best;
        ] );
      ( "preservation",
        [
          Alcotest.test_case "sqrt agrees at all levels" `Quick test_sqrt_all_levels_agree;
          QCheck_alcotest.to_alcotest prop_standard_preserves;
          QCheck_alcotest.to_alcotest prop_aggressive_preserves;
          QCheck_alcotest.to_alcotest prop_each_pass_preserves;
        ] );
    ]
