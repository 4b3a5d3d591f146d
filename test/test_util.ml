(* Unit and property tests for the hls_util substrate. *)

open Hls_util

let check = Alcotest.(check int)

(* ---- Pqueue ---- *)

let test_pqueue_basic () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  List.iter (Pqueue.push q) [ 5; 1; 4; 1; 3 ];
  check "length" 5 (Pqueue.length q);
  Alcotest.(check (option int)) "peek" (Some 1) (Pqueue.peek q);
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] (Pqueue.to_sorted_list q);
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  (* equal priorities pop in insertion order *)
  let q = Pqueue.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  List.iter (Pqueue.push q) [ (1, "first"); (0, "zero"); (1, "second"); (1, "third") ];
  let order = List.map snd (Pqueue.to_sorted_list q) in
  Alcotest.(check (list string)) "fifo" [ "zero"; "first"; "second"; "third" ] order

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q = Pqueue.of_list ~cmp:compare xs in
      Pqueue.to_sorted_list q = List.sort compare xs)

let test_pqueue_pop_empty () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.(check (option int)) "pop empty" None (Pqueue.pop q);
  Pqueue.push q 7;
  Alcotest.(check (option int)) "pop" (Some 7) (Pqueue.pop q);
  Alcotest.(check (option int)) "empty again" None (Pqueue.pop q)

(* ---- Fixedpt ---- *)

let q8_8 = Fixedpt.format ~int_bits:8 ~frac_bits:8

let test_fixed_roundtrip () =
  List.iter
    (fun x ->
      let raw = Fixedpt.of_float q8_8 x in
      let back = Fixedpt.to_float q8_8 raw in
      if abs_float (back -. x) > Fixedpt.eps q8_8 then
        Alcotest.failf "roundtrip %f -> %f" x back)
    [ 0.0; 1.0; -1.0; 3.75; -2.5; 0.00390625; 127.0; -128.0 ]

let test_fixed_wrap () =
  let f = Fixedpt.format ~int_bits:4 ~frac_bits:0 in
  check "wrap 8" (-8) (Fixedpt.wrap f 8);
  check "wrap 7" 7 (Fixedpt.wrap f 7);
  check "wrap -9" 7 (Fixedpt.wrap f (-9));
  check "wrap 16" 0 (Fixedpt.wrap f 16)

let test_fixed_mul_div () =
  let a = Fixedpt.of_float q8_8 1.5 and b = Fixedpt.of_float q8_8 2.25 in
  Alcotest.(check (float 0.01)) "mul" 3.375 (Fixedpt.to_float q8_8 (Fixedpt.mul q8_8 a b));
  Alcotest.(check (float 0.01)) "div" 0.6666
    (Fixedpt.to_float q8_8 (Fixedpt.div q8_8 a b));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Fixedpt.div q8_8 a 0))

let test_fixed_incr_semantics () =
  check "of_int" 256 (Fixedpt.of_int q8_8 1);
  check "to_int trunc" 1 (Fixedpt.to_int q8_8 (Fixedpt.of_float q8_8 1.75))

let prop_fixed_mul_pow2_is_shift =
  QCheck.Test.make ~name:"fixed multiply by 0.5 equals shift right 1" ~count:500
    QCheck.(int_range (-30000) 30000)
    (fun a ->
      let half = Fixedpt.of_float q8_8 0.5 in
      Fixedpt.mul q8_8 a half = Fixedpt.shift_right q8_8 a 1)

let prop_fixed_add_assoc =
  QCheck.Test.make ~name:"wrapping addition associative" ~count:300
    QCheck.(triple small_int small_int small_int)
    (fun (a, b, c) ->
      Fixedpt.add q8_8 (Fixedpt.add q8_8 a b) c
      = Fixedpt.add q8_8 a (Fixedpt.add q8_8 b c))

let test_fixed_bad_format () =
  Alcotest.check_raises "zero bits" (Invalid_argument "Fixedpt.format: total bits must be in 1..62")
    (fun () -> ignore (Fixedpt.format ~int_bits:0 ~frac_bits:0))

(* ---- Interval ---- *)

let test_interval_overlap () =
  let mk = Interval.make in
  Alcotest.(check bool) "adjacent closed" true (Interval.overlaps (mk 0 2) (mk 2 4));
  Alcotest.(check bool) "disjoint" false (Interval.overlaps (mk 0 1) (mk 2 4));
  Alcotest.(check bool) "nested" true (Interval.overlaps (mk 0 9) (mk 3 4));
  check "length" 3 (Interval.length (mk 2 4));
  Alcotest.check_raises "bad" (Invalid_argument "Interval.make: lo > hi") (fun () ->
      ignore (mk 3 1))

let test_interval_max_overlap () =
  let mk = Interval.make in
  check "empty" 0 (Interval.max_overlap []);
  check "single" 1 (Interval.max_overlap [ mk 0 5 ]);
  check "stack of 3" 3 (Interval.max_overlap [ mk 0 5; mk 1 2; mk 2 3 ]);
  check "chain" 1 (Interval.max_overlap [ mk 0 0; mk 1 1; mk 2 2 ])

let test_interval_arith () =
  let mk = Interval.make in
  let eq name a b =
    Alcotest.(check (pair int int)) name (a.Interval.lo, a.Interval.hi)
      (b.Interval.lo, b.Interval.hi)
  in
  eq "of_width 8" (mk (-128) 127) (Interval.of_width 8);
  eq "of_width 1" (mk (-1) 0) (Interval.of_width 1);
  Alcotest.check_raises "of_width 0"
    (Invalid_argument "Interval.of_width: width out of 1..62") (fun () ->
      ignore (Interval.of_width 0));
  eq "add" (mk 3 12) (Interval.add (mk 1 4) (mk 2 8));
  eq "neg" (mk (-4) (-1)) (Interval.neg (mk 1 4));
  eq "mul signs" (mk (-12) 6) (Interval.mul (mk (-2) 1) (mk 2 6));
  eq "mul negative pair" (mk 2 12) (Interval.mul (mk (-4) (-1)) (mk (-3) (-2)));
  (match Interval.intersect (mk 0 5) (mk 3 9) with
  | Some iv -> eq "intersect" (mk 3 5) iv
  | None -> Alcotest.fail "overlapping intersection is empty");
  Alcotest.(check bool) "disjoint intersect" true
    (Interval.intersect (mk 0 1) (mk 3 9) = None)

let test_interval_widen () =
  let mk = Interval.make in
  let bound = Interval.of_width 8 in
  let eq name a b =
    Alcotest.(check (pair int int)) name (a.Interval.lo, a.Interval.hi)
      (b.Interval.lo, b.Interval.hi)
  in
  (* stable bounds stay; growing bounds jump to the widening bound *)
  eq "stable" (mk 0 5) (Interval.widen ~bound (mk 0 5) (mk 0 5));
  eq "hi grows" (mk 0 127) (Interval.widen ~bound (mk 0 5) (mk 0 6));
  eq "lo grows" (mk (-128) 5) (Interval.widen ~bound (mk 0 5) (mk (-1) 5));
  eq "inside stays" (mk 0 9) (Interval.widen ~bound (mk 0 9) (mk 2 7))

let prop_max_overlap_brute =
  QCheck.Test.make ~name:"max_overlap matches brute force" ~count:200
    Gen.intervals_arbitrary
    (fun seed ->
      let ivs = List.map snd (Gen.intervals_of_seed seed) in
      let brute =
        List.fold_left
          (fun acc p ->
            max acc (List.length (List.filter (fun iv -> Interval.contains iv p) ivs)))
          0
          (List.init 40 Fun.id)
      in
      Interval.max_overlap ivs = brute)

(* ---- Table / Dot / Vec ---- *)

let test_table_render () =
  let t = Table.create ~headers:[ "a"; "bb" ] in
  Table.add_row t [ "xxx"; "y" ];
  Table.add_row t [ "1" ] (* short row pads *);
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: sep :: _ ->
      Alcotest.(check bool) "separator dashes" true (String.contains sep '-');
      Alcotest.(check bool) "header first" true (String.length header >= 4)
  | _ -> Alcotest.fail "too few lines");
  check "line count" 5 (List.length lines)

let test_dot_escaping () =
  let d = Dot.create "g\"raph" in
  Dot.node d ~attrs:[ ("label", "a\"b\nc") ] "n1";
  Dot.edge d "n1" "n1";
  let s = Dot.render d in
  Alcotest.(check bool) "escaped quote" true
    (String.length s > 0 && not (String.equal s ""));
  Alcotest.(check bool) "digraph" true (String.sub s 0 7 = "digraph")

let test_vec () =
  let v = Vec.create () in
  check "push0" 0 (Vec.push v 10);
  check "push1" 1 (Vec.push v 20);
  check "get" 20 (Vec.get v 1);
  Vec.set v 0 99;
  check "set" 99 (Vec.get v 0);
  Alcotest.(check (list int)) "to_list" [ 99; 20 ] (Vec.to_list v);
  check "fold" 119 (Vec.fold_left ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 99) v);
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 2))

(* ---- Binprog ---- *)

let test_binprog_basic () =
  let prog = Binprog.create () in
  let a = Binprog.new_var prog in
  let b = Binprog.new_var prog in
  let c = Binprog.new_var prog in
  Binprog.add_group prog [ a; b ];
  Binprog.implies prog a c;
  (* minimize: prefer b (cost 0) over a (cost 1) *)
  (match Binprog.solve ~objective:[ (a, 1); (c, 1) ] prog with
  | Some value ->
      Alcotest.(check bool) "picks b" true (value b);
      Alcotest.(check bool) "not a" false (value a)
  | None -> Alcotest.fail "satisfiable");
  Alcotest.(check int) "vars" 3 (Binprog.n_vars prog)

let test_binprog_unsat () =
  let prog = Binprog.create () in
  let a = Binprog.new_var prog in
  let b = Binprog.new_var prog in
  Binprog.add_group prog [ a ];
  Binprog.add_group prog [ b ];
  Binprog.forbid_pair prog a b;
  Alcotest.(check bool) "unsat" true (Binprog.solve prog = None)

let test_binprog_at_most () =
  let prog = Binprog.create () in
  let vars = List.init 4 (fun _ -> Binprog.new_var prog) in
  (* each var is an independent decision; forcing via implies from a
     grouped var *)
  let trigger = Binprog.new_var prog in
  Binprog.add_group prog [ trigger ];
  List.iter (fun v -> Binprog.implies prog trigger v) vars;
  Binprog.at_most prog 3 vars;
  Alcotest.(check bool) "over budget unsat" true (Binprog.solve prog = None)

let prop_binprog_exactly_one =
  QCheck.Test.make ~name:"solution picks exactly one per group" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (n_groups, group_size) ->
      let prog = Binprog.create () in
      let groups =
        List.init n_groups (fun _ ->
            List.init group_size (fun _ -> Binprog.new_var prog))
      in
      List.iter (Binprog.add_group prog) groups;
      match Binprog.solve prog with
      | None -> false
      | Some value ->
          List.for_all
            (fun g -> List.length (List.filter value g) = 1)
            groups)

(* ---- Json typed coercions ---- *)

let test_json_to_int_exact () =
  let oi = Alcotest.(check (option int)) in
  oi "integral" (Some 42) (Json.to_int (Json.Num 42.0));
  oi "negative" (Some (-7)) (Json.to_int (Json.Num (-7.0)));
  oi "fractional" None (Json.to_int (Json.Num 2.5));
  oi "beyond exact range" None (Json.to_int (Json.Num 1e16));
  oi "not a number" None (Json.to_int (Json.Str "3"))

let test_json_typed_members () =
  let v =
    Json.Obj [ ("n", Json.of_int 3); ("s", Json.Str "x"); ("b", Json.Bool false) ]
  in
  Alcotest.(check (option int)) "int" (Some 3) (Json.int_member "n" v);
  Alcotest.(check (option string)) "str" (Some "x") (Json.str_member "s" v);
  Alcotest.(check (option bool)) "bool" (Some false) (Json.bool_member "b" v);
  Alcotest.(check (option int)) "wrong type" None (Json.int_member "s" v);
  Alcotest.(check (option string)) "missing" None (Json.str_member "z" v);
  Alcotest.(check (option int)) "not an object" None (Json.int_member "n" (Json.Num 3.0))

let prop_json_of_int_roundtrip =
  QCheck.Test.make ~name:"of_int then to_int is identity" ~count:300
    QCheck.(int_range (-1_000_000_000) 1_000_000_000)
    (fun n ->
      match Json.parse (Json.to_string (Json.of_int n)) with
      | Ok j -> Json.to_int j = Some n
      | Error _ -> false)

let () =
  Alcotest.run "util"
    [
      ( "pqueue",
        [
          Alcotest.test_case "basic" `Quick test_pqueue_basic;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "pop empty" `Quick test_pqueue_pop_empty;
          QCheck_alcotest.to_alcotest prop_pqueue_sorts;
        ] );
      ( "fixedpt",
        [
          Alcotest.test_case "roundtrip" `Quick test_fixed_roundtrip;
          Alcotest.test_case "wrap" `Quick test_fixed_wrap;
          Alcotest.test_case "mul/div" `Quick test_fixed_mul_div;
          Alcotest.test_case "int conversions" `Quick test_fixed_incr_semantics;
          Alcotest.test_case "bad format" `Quick test_fixed_bad_format;
          QCheck_alcotest.to_alcotest prop_fixed_mul_pow2_is_shift;
          QCheck_alcotest.to_alcotest prop_fixed_add_assoc;
        ] );
      ( "interval",
        [
          Alcotest.test_case "overlap" `Quick test_interval_overlap;
          Alcotest.test_case "max_overlap" `Quick test_interval_max_overlap;
          Alcotest.test_case "range arithmetic" `Quick test_interval_arith;
          Alcotest.test_case "widen" `Quick test_interval_widen;
          QCheck_alcotest.to_alcotest prop_max_overlap_brute;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "dot" `Quick test_dot_escaping;
          Alcotest.test_case "vec" `Quick test_vec;
        ] );
      ( "binprog",
        [
          Alcotest.test_case "objective" `Quick test_binprog_basic;
          Alcotest.test_case "unsat" `Quick test_binprog_unsat;
          Alcotest.test_case "at-most" `Quick test_binprog_at_most;
          QCheck_alcotest.to_alcotest prop_binprog_exactly_one;
        ] );
      ( "json-typed",
        [
          Alcotest.test_case "to_int exactness" `Quick test_json_to_int_exact;
          Alcotest.test_case "typed members" `Quick test_json_typed_members;
          QCheck_alcotest.to_alcotest prop_json_of_int_roundtrip;
        ] );
    ]
