(* Tests for the CDFG layer: operator evaluation, DFG invariants, graph
   algorithms, AST→CDFG compilation (Fig 1) and liveness. *)

open Hls_lang
open Hls_cdfg

let i8 = Ast.Tint 8
let fix44 = Ast.Tfix (4, 4)

(* ---- Op.eval ---- *)

let test_op_eval_int () =
  Alcotest.(check int) "add wrap" (-128) (Op.eval i8 Op.Add [ 127; 1 ]);
  Alcotest.(check int) "sub" 3 (Op.eval i8 Op.Sub [ 5; 2 ]);
  Alcotest.(check int) "mul" 20 (Op.eval i8 Op.Mul [ 4; 5 ]);
  Alcotest.(check int) "div trunc" (-2) (Op.eval i8 Op.Div [ -5; 2 ]);
  Alcotest.(check int) "mod" 1 (Op.eval i8 Op.Mod [ 5; 2 ]);
  Alcotest.(check int) "incr" 6 (Op.eval i8 Op.Incr [ 5 ]);
  Alcotest.(check int) "decr" 4 (Op.eval i8 Op.Decr [ 5 ]);
  Alcotest.(check int) "neg" (-5) (Op.eval i8 Op.Neg [ 5 ]);
  Alcotest.(check int) "shl" 8 (Op.eval i8 Op.Shl [ 2; 2 ]);
  Alcotest.(check int) "shr arith" (-2) (Op.eval i8 Op.Shr [ -3; 1 ]);
  Alcotest.(check int) "and" 4 (Op.eval i8 Op.And [ 6; 12 ]);
  Alcotest.(check int) "xor" 10 (Op.eval i8 Op.Xor [ 6; 12 ]);
  Alcotest.(check int) "zdetect yes" 1 (Op.eval Ast.Tbool Op.Zdetect [ 0 ]);
  Alcotest.(check int) "zdetect no" 0 (Op.eval Ast.Tbool Op.Zdetect [ 3 ]);
  Alcotest.(check int) "mux true" 7 (Op.eval i8 Op.Mux [ 1; 7; 9 ]);
  Alcotest.(check int) "mux false" 9 (Op.eval i8 Op.Mux [ 0; 7; 9 ])

let test_op_eval_cmp () =
  List.iter
    (fun (c, a, b, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "cmp %d %d" a b)
        expected
        (Op.eval Ast.Tbool (Op.Cmp c) [ a; b ]))
    [
      (Op.Ceq, 3, 3, 1); (Op.Ceq, 3, 4, 0); (Op.Cne, 3, 4, 1); (Op.Clt, -1, 0, 1);
      (Op.Cle, 2, 2, 1); (Op.Cgt, 5, 4, 1); (Op.Cge, 4, 5, 0);
    ]

let test_op_eval_fix () =
  (* 1.5 * 2.0 in fix<4,4>: patterns 24 and 32 -> 48 (3.0) *)
  Alcotest.(check int) "fix mul" 48 (Op.eval fix44 Op.Mul [ 24; 32 ]);
  (* 1.0 / 2.0 = 0.5 -> pattern 8 *)
  Alcotest.(check int) "fix div" 8 (Op.eval fix44 Op.Div [ 16; 32 ]);
  (* incr adds 1.0 = pattern 16 *)
  Alcotest.(check int) "fix incr" 40 (Op.eval fix44 Op.Incr [ 24 ])

let test_op_arity_errors () =
  Alcotest.(check bool) "arity" true
    (try
       ignore (Op.eval i8 Op.Add [ 1 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "div0" true
    (try
       ignore (Op.eval i8 Op.Div [ 1; 0 ]);
       false
     with Division_by_zero -> true)

(* ---- Dfg ---- *)

let test_dfg_invariants () =
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i8 in
  let b = Dfg.add g (Op.Const 3) [] i8 in
  let s = Dfg.add g Op.Add [ a; b ] i8 in
  let _w = Dfg.add g (Op.Write "y") [ s ] i8 in
  Alcotest.(check int) "nodes" 4 (Dfg.n_nodes g);
  Alcotest.(check (list int)) "users of a" [ s ] (Dfg.users g).(a);
  (* forward reference rejected *)
  Alcotest.(check bool) "forward ref" true
    (try
       ignore (Dfg.add g Op.Add [ 99; a ] i8);
       false
     with Invalid_argument _ -> true);
  (* arity mismatch rejected *)
  Alcotest.(check bool) "arity" true
    (try
       ignore (Dfg.add g Op.Add [ a ] i8);
       false
     with Invalid_argument _ -> true)

let test_dfg_classes () =
  let g = Dfg.create () in
  let x = Dfg.add g (Op.Read "x") [] fix44 in
  let k = Dfg.add g (Op.Const 1) [] (Ast.Tint 6) in
  let sh = Dfg.add g Op.Shr [ x; k ] fix44 in
  let amt = Dfg.add g (Op.Read "n") [] (Ast.Tint 6) in
  let shv = Dfg.add g Op.Shr [ x; amt ] fix44 in
  let c0 = Dfg.add g (Op.Const 0) [] i8 in
  let wmove = Dfg.add g (Op.Write "i") [ c0 ] i8 in
  let add = Dfg.add g Op.Add [ sh; sh ] fix44 in
  let wcomp = Dfg.add g (Op.Write "y") [ add ] fix44 in
  Alcotest.(check string) "const shift free" "free"
    (Op.fu_class_to_string (Dfg.fu_class_of g sh));
  Alcotest.(check string) "variable shift occupies" "shift"
    (Op.fu_class_to_string (Dfg.fu_class_of g shv));
  Alcotest.(check string) "write-move is alu" "alu"
    (Op.fu_class_to_string (Dfg.fu_class_of g wmove));
  Alcotest.(check string) "computed write free" "none"
    (Op.fu_class_to_string (Dfg.fu_class_of g wcomp));
  Alcotest.(check (list int)) "compute ops" [ shv; wmove; add ] (Dfg.compute_ops g)

let test_dfg_path_length () =
  (* chain: a -> add1 -> add2 -> write; path counted in occupying ops *)
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i8 in
  let x = Dfg.add g Op.Add [ a; a ] i8 in
  let y = Dfg.add g Op.Add [ x; a ] i8 in
  let _ = Dfg.add g (Op.Write "y") [ y ] i8 in
  let pl = Dfg.path_length g in
  Alcotest.(check int) "pl x" 2 pl.(x);
  Alcotest.(check int) "pl y" 1 pl.(y);
  let d = Dfg.depth g in
  Alcotest.(check int) "depth x" 1 d.(x);
  Alcotest.(check int) "depth y" 2 d.(y)

(* ---- Graph_algo ---- *)

let diamond = [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |]

let test_topo_sort () =
  (match Graph_algo.topo_sort ~succs:diamond with
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      Alcotest.(check bool) "0 before 3" true (pos.(0) < pos.(3));
      Alcotest.(check bool) "1 before 3" true (pos.(1) < pos.(3))
  | None -> Alcotest.fail "diamond is acyclic");
  match Graph_algo.topo_sort ~succs:[| [ 1 ]; [ 0 ] |] with
  | None -> ()
  | Some _ -> Alcotest.fail "cycle must be detected"

let test_dominators_and_loops () =
  (* 0 -> 1 -> 2 -> 1 (back edge), 2 -> 3 *)
  let succs = [| [ 1 ]; [ 2 ]; [ 1; 3 ]; [] |] in
  let idom = Graph_algo.dominators ~succs ~entry:0 in
  Alcotest.(check int) "idom 1" 0 idom.(1);
  Alcotest.(check int) "idom 2" 1 idom.(2);
  Alcotest.(check int) "idom 3" 2 idom.(3);
  Alcotest.(check bool) "1 dom 3" true (Graph_algo.dominates ~idom 1 3);
  Alcotest.(check bool) "3 not dom 1" false (Graph_algo.dominates ~idom 3 1);
  Alcotest.(check (list (pair int int))) "back edges" [ (2, 1) ]
    (Graph_algo.back_edges ~succs ~entry:0);
  match Graph_algo.loops ~succs ~entry:0 with
  | [ (1, members) ] -> Alcotest.(check (list int)) "loop members" [ 1; 2 ] members
  | _ -> Alcotest.fail "one loop expected"

let test_longest_path () =
  let lp = Graph_algo.longest_path ~succs:diamond ~weight:(fun _ -> 1) in
  Alcotest.(check int) "source" 3 lp.(0);
  Alcotest.(check int) "sink" 1 lp.(3)

(* ---- Compile (Fig 1) ---- *)

let sqrt_cfg () =
  let _, cfg = Compile.compile_source Hls_core.Workloads.sqrt_newton in
  cfg

let test_compile_sqrt_structure () =
  let cfg = sqrt_cfg () in
  Alcotest.(check int) "blocks" 3 (Cfg.n_blocks cfg);
  (* paper: 3 prologue operations, 5 loop-body operations *)
  Alcotest.(check int) "prologue ops" 3 (List.length (Dfg.compute_ops (Cfg.dfg cfg 0)));
  Alcotest.(check int) "body ops" 5 (List.length (Dfg.compute_ops (Cfg.dfg cfg 1)));
  Alcotest.(check (option int)) "trip count" (Some 4) (Cfg.trip_count cfg 1);
  Alcotest.(check int) "body freq" 4 (Cfg.exec_frequencies cfg).(1);
  Alcotest.(check int) "prologue freq" 1 (Cfg.exec_frequencies cfg).(0)

let test_compile_if_else () =
  let _, cfg =
    Compile.compile_source
      "module m(input a: int<8>; output y: int<8>); begin if a > 0 then y := a; else y := 0 - a; end; end"
  in
  (* cond block, then, else, join *)
  Alcotest.(check int) "blocks" 4 (Cfg.n_blocks cfg);
  match Cfg.term cfg 0 with
  | Cfg.Branch (_, bt, bf) ->
      Alcotest.(check bool) "targets differ" true (bt <> bf)
  | _ -> Alcotest.fail "entry must branch"

let test_compile_for_trip () =
  let _, cfg =
    Compile.compile_source
      "module m(output y: int<8>); var i: int<8>; begin y := 0; for i := 0 to 9 do y := y + 2; end; end"
  in
  let trips =
    List.filter_map (fun bid -> Cfg.trip_count cfg bid) (Cfg.block_ids cfg)
  in
  Alcotest.(check (list int)) "for trip" [ 10 ] trips

let test_compile_while_trip () =
  let _, cfg =
    Compile.compile_source
      "module m(output y: int<8>); var i: int<8>; begin i := 2; y := 0; while i < 7 do y := y + 1; i := i + 1; end; end"
  in
  let trips = List.filter_map (fun bid -> Cfg.trip_count cfg bid) (Cfg.block_ids cfg) in
  Alcotest.(check (list int)) "while trip" [ 5 ] trips

let test_compile_no_trip_when_data_dependent () =
  let _, cfg = Compile.compile_source Hls_core.Workloads.gcd in
  let trips = List.filter_map (fun bid -> Cfg.trip_count cfg bid) (Cfg.block_ids cfg) in
  Alcotest.(check (list int)) "no trip" [] trips

let test_compile_variable_reuse_is_dataflow () =
  (* x := a + b; x := x * 2 — the two x values are separate arcs *)
  let _, cfg =
    Compile.compile_source
      "module m(input a, b: int<8>; output y: int<8>); var x: int<8>; begin x := a + b; x := x * 2; y := x; end"
  in
  let g = Cfg.dfg cfg 0 in
  (* only the reads of a and b exist; no read of x (forwarded) *)
  let reads = List.map fst (Dfg.reads g) in
  Alcotest.(check (list string)) "reads" [ "a"; "b" ] (List.sort compare reads)

(* ---- Liveness ---- *)

let test_liveness_sqrt () =
  let cfg = sqrt_cfg () in
  let live = Liveness.analyze ~live_at_exit:[ "y" ] cfg in
  (* loop body needs x, y, i on entry *)
  Alcotest.(check (list string)) "live into body" [ "i"; "x"; "y" ] (Liveness.live_in live 1);
  Alcotest.(check (list string)) "live out of exit" [ "y" ] (Liveness.live_out live 2)

(* ---- properties ---- *)

let prop_compile_valid =
  QCheck.Test.make ~name:"compiled CFGs validate" ~count:200 Gen.program_arbitrary
    (fun seed ->
      let prog = Typecheck.check (Gen.program_of_seed seed) in
      let cfg = Compile.compile prog in
      Cfg.validate cfg;
      true)

let prop_dfg_ids_topological =
  QCheck.Test.make ~name:"random dfg ids topological" ~count:200 Gen.dfg_arbitrary
    (fun seed ->
      let g = Gen.dfg_of_seed seed in
      List.for_all
        (fun id -> List.for_all (fun a -> a < id) (Dfg.args g id))
        (Dfg.node_ids g))

let () =
  Alcotest.run "cdfg"
    [
      ( "op",
        [
          Alcotest.test_case "eval int" `Quick test_op_eval_int;
          Alcotest.test_case "eval cmp" `Quick test_op_eval_cmp;
          Alcotest.test_case "eval fix" `Quick test_op_eval_fix;
          Alcotest.test_case "errors" `Quick test_op_arity_errors;
        ] );
      ( "dfg",
        [
          Alcotest.test_case "invariants" `Quick test_dfg_invariants;
          Alcotest.test_case "fu classes" `Quick test_dfg_classes;
          Alcotest.test_case "path length" `Quick test_dfg_path_length;
          QCheck_alcotest.to_alcotest prop_dfg_ids_topological;
        ] );
      ( "graph_algo",
        [
          Alcotest.test_case "topo sort" `Quick test_topo_sort;
          Alcotest.test_case "dominators+loops" `Quick test_dominators_and_loops;
          Alcotest.test_case "longest path" `Quick test_longest_path;
        ] );
      ( "compile",
        [
          Alcotest.test_case "sqrt structure (Fig 1)" `Quick test_compile_sqrt_structure;
          Alcotest.test_case "if/else" `Quick test_compile_if_else;
          Alcotest.test_case "for trip count" `Quick test_compile_for_trip;
          Alcotest.test_case "while trip count" `Quick test_compile_while_trip;
          Alcotest.test_case "data-dependent loop" `Quick test_compile_no_trip_when_data_dependent;
          Alcotest.test_case "variable reuse" `Quick test_compile_variable_reuse_is_dataflow;
          QCheck_alcotest.to_alcotest prop_compile_valid;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "sqrt" `Quick test_liveness_sqrt;
        ] );
    ]
