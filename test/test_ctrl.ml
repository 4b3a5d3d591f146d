(* Controller tests: state encodings, two-level logic, Quine–McCluskey
   minimization (with an exhaustive-equivalence property), FSM
   extraction, synthesized next-state logic correctness, and microcode
   cost relations. *)

open Hls_sched
open Hls_ctrl

(* ---- encodings ---- *)

let test_encoding_widths () =
  Alcotest.(check int) "binary 5" 3 (Encoding.width Encoding.Binary ~n_states:5);
  Alcotest.(check int) "binary 8" 3 (Encoding.width Encoding.Binary ~n_states:8);
  Alcotest.(check int) "binary 9" 4 (Encoding.width Encoding.Binary ~n_states:9);
  Alcotest.(check int) "gray 5" 3 (Encoding.width Encoding.Gray ~n_states:5);
  Alcotest.(check int) "one-hot 5" 5 (Encoding.width Encoding.One_hot ~n_states:5);
  Alcotest.(check int) "binary 1" 1 (Encoding.width Encoding.Binary ~n_states:1)

let test_encoding_distinct () =
  List.iter
    (fun style ->
      let codes = Encoding.encode style ~n_states:12 in
      let sorted = List.sort_uniq compare (Array.to_list codes) in
      Alcotest.(check int)
        (Encoding.style_to_string style)
        12 (List.length sorted))
    [ Encoding.Binary; Encoding.Gray; Encoding.One_hot ]

let test_gray_adjacent () =
  let codes = Encoding.encode Encoding.Gray ~n_states:16 in
  let popcount v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
    go v 0
  in
  for i = 0 to 14 do
    Alcotest.(check int) "one bit flips" 1 (popcount (codes.(i) lxor codes.(i + 1)))
  done

let test_one_hot_codes () =
  let codes = Encoding.encode Encoding.One_hot ~n_states:4 in
  Alcotest.(check (array int)) "powers of two" [| 1; 2; 4; 8 |] codes

(* ---- logic ---- *)

let test_logic_eval () =
  let c = { Logic.mask = 0b101; value = 0b001 } in
  Alcotest.(check bool) "covers" true (Logic.cube_covers c 0b011);
  Alcotest.(check bool) "not covers" false (Logic.cube_covers c 0b100);
  Alcotest.(check int) "literals" 2 (Logic.literals ~n_inputs:3 c);
  Alcotest.(check bool) "sop" true (Logic.eval [ c; { Logic.mask = 0; value = 0 } ] 0b100);
  Alcotest.(check string) "render" "!x2&x0" (Logic.cube_to_string ~n_inputs:3 c)

(* ---- Quine–McCluskey ---- *)

let test_qm_classics () =
  (* full function -> universal cube *)
  (match Qm.minimize ~n_inputs:2 ~on_set:[ 0; 1; 2; 3 ] () with
  | [ { Logic.mask = 0; value = 0 } ] -> ()
  | sop -> Alcotest.failf "expected universal cube, got %s" (Logic.sop_to_string ~n_inputs:2 sop));
  (* xor needs two full product terms *)
  Alcotest.(check int) "xor cubes" 2 (List.length (Qm.minimize ~n_inputs:2 ~on_set:[ 1; 2 ] ()));
  (* empty function *)
  Alcotest.(check int) "empty" 0 (List.length (Qm.minimize ~n_inputs:3 ~on_set:[] ()));
  (* don't cares enable merging: f(0)=1, f(1)=dc over 1 var -> constant 1 *)
  match Qm.minimize ~n_inputs:1 ~on_set:[ 0 ] ~dc_set:[ 1 ] () with
  | [ { Logic.mask = 0; value = 0 } ] -> ()
  | sop -> Alcotest.failf "dc merge failed: %s" (Logic.sop_to_string ~n_inputs:1 sop)

let test_qm_rejects_overlap () =
  Alcotest.(check bool) "overlap" true
    (try
       ignore (Qm.minimize ~n_inputs:2 ~on_set:[ 1 ] ~dc_set:[ 1 ] ());
       false
     with Invalid_argument _ -> true);
  (* a dc-minterm listed twice is not an overlap *)
  Alcotest.(check int) "repeated dc-minterm" 1
    (List.length (Qm.minimize ~n_inputs:2 ~on_set:[ 0 ] ~dc_set:[ 1; 1 ] ()))

let prop_qm_equivalent =
  QCheck.Test.make ~name:"QM result equals the function (exhaustive)" ~count:300
    QCheck.(pair (int_range 1 5) (int_bound 100000))
    (fun (n_inputs, seed) ->
      let rng = Random.State.make [| seed |] in
      let size = 1 lsl n_inputs in
      let kind = Array.init size (fun _ -> Random.State.int rng 3) in
      (* 0 = off, 1 = on, 2 = don't care *)
      let on_set = List.filter (fun i -> kind.(i) = 1) (List.init size Fun.id) in
      let dc_set = List.filter (fun i -> kind.(i) = 2) (List.init size Fun.id) in
      let sop = Qm.minimize ~n_inputs ~on_set ~dc_set () in
      List.for_all
        (fun x ->
          match kind.(x) with
          | 1 -> Logic.eval sop x
          | 0 -> not (Logic.eval sop x)
          | _ -> true)
        (List.init size Fun.id))

let test_qm_rejects_out_of_range_minterms () =
  let rejects what ?dc_set on_set ~msg =
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Qm.minimize ~n_inputs:2 ~on_set ?dc_set ()))
  in
  (* 5 = 0b101 used to be masked down to minterm 1 *)
  rejects "on-set 5 of 2 inputs" [ 5 ] ~msg:"Qm.minimize: minterm 5 outside [0, 4)";
  rejects "on-set 4 of 2 inputs" [ 0; 4 ] ~msg:"Qm.minimize: minterm 4 outside [0, 4)";
  rejects "negative on-set" [ -1 ] ~msg:"Qm.minimize: minterm -1 outside [0, 4)";
  rejects "dc-set 8 of 2 inputs" ~dc_set:[ 8 ] [ 1 ]
    ~msg:"Qm.minimize: minterm 8 outside [0, 4)";
  Alcotest.(check int) "top minterm accepted" 1
    (List.length (Qm.minimize ~n_inputs:2 ~on_set:[ 3 ] ()))

let test_qm_input_cap () =
  ignore (Qm.minimize ~n_inputs:Qm.max_inputs ~on_set:[ 0 ] ());
  (* the 3^13-bit table would be ~200 KB; the rejection allocates only
     its message *)
  let before = Gc.allocated_bytes () in
  Alcotest.check_raises "max_inputs + 1"
    (Invalid_argument "Qm.minimize: 13 inputs, outside [0, 12]") (fun () ->
      ignore (Qm.minimize ~n_inputs:(Qm.max_inputs + 1) ~on_set:[ 0 ] ()));
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "rejected before allocating the table (%.0f bytes)" allocated)
    true (allocated < 4096.)

(* Differential check against the level-by-level oracle over every input
   count QM accepts: random tables, and dc-heavy ones shaped like a
   controller's, where every minterm whose low state bits hold an unused
   code is a don't-care. Above 10 inputs only one minterm in 32 is on or
   don't-care (a don't-care if its code is unused), which keeps the
   oracle's cube sets small. *)
let prop_qm_matches_reference =
  QCheck.Test.make ~name:"QM matches the level-by-level reference" ~count:120
    QCheck.(triple (int_range 1 Qm.max_inputs) bool (int_bound 100000))
    (fun (n_inputs, controller_shaped, seed) ->
      let rng = Random.State.make [| seed |] in
      let size = 1 lsl n_inputs in
      let sparse = n_inputs > 10 in
      let state_bits = 1 + Random.State.int rng n_inputs in
      let used_codes = 1 + Random.State.int rng (1 lsl state_bits) in
      (* 0 = off, 1 = on, 2 = don't care *)
      let kind =
        Array.init size (fun x ->
            let unused =
              controller_shaped && x land ((1 lsl state_bits) - 1) >= used_codes
            in
            if sparse && Random.State.int rng 32 <> 0 then 0
            else if unused then 2
            else if sparse then 1 + Random.State.int rng 2
            else Random.State.int rng 3)
      in
      let on_set = List.filter (fun i -> kind.(i) = 1) (List.init size Fun.id) in
      let dc_set = List.filter (fun i -> kind.(i) = 2) (List.init size Fun.id) in
      let with_iterations f =
        let before = Hls_obs.Trace.counter "ctrl/qm_iterations" in
        let sop = f () in
        (sop, Hls_obs.Trace.counter "ctrl/qm_iterations" - before)
      in
      with_iterations (Qm.minimize ~n_inputs ~on_set ~dc_set)
      = with_iterations (Hls_reference.Qm_reference.minimize ~n_inputs ~on_set ~dc_set))

let prop_qm_no_more_literals_than_minterms =
  QCheck.Test.make ~name:"QM never exceeds the minterm expansion" ~count:200
    QCheck.(pair (int_range 1 5) (int_bound 100000))
    (fun (n_inputs, seed) ->
      let rng = Random.State.make [| seed |] in
      let size = 1 lsl n_inputs in
      let on_set =
        List.filter (fun _ -> Random.State.bool rng) (List.init size Fun.id)
      in
      let sop = Qm.minimize ~n_inputs ~on_set () in
      Logic.sop_literals ~n_inputs sop <= n_inputs * List.length on_set)

(* ---- FSM extraction ---- *)

let sqrt_cs () =
  let _, cfg = Hls_cdfg.Compile.compile_source Hls_core.Workloads.sqrt_newton in
  let cfg =
    Hls_transform.Passes.run_pipeline ~outputs:[ "y" ]
      (Hls_transform.Passes.standard @ [ Hls_transform.Passes.find_exn "loop-recode" ])
      cfg
  in
  Gen.schedule_cfg (List_sched.schedule_dep ~limits:Limits.two_fu) cfg

let test_fsm_sqrt () =
  let cs = sqrt_cs () in
  let fsm = Fsm.of_schedule cs in
  (* 2 prologue + 2 body + 1 exit + DONE *)
  Alcotest.(check int) "states" 6 (Fsm.n_states fsm);
  Alcotest.(check int) "entry is first prologue step" (Fsm.state_of fsm 0 1) (Fsm.entry fsm);
  (* the body's last state branches two ways *)
  let branch_state = Fsm.state_of fsm 1 2 in
  Alcotest.(check int) "two outgoing" 2 (List.length (Fsm.outgoing fsm branch_state));
  (* DONE self-loops *)
  match Fsm.outgoing fsm (Fsm.done_state fsm) with
  | [ { Fsm.t_to; _ } ] -> Alcotest.(check int) "self loop" (Fsm.done_state fsm) t_to
  | _ -> Alcotest.fail "done must self-loop"

let test_fsm_transition_totality () =
  let cs = sqrt_cs () in
  let fsm = Fsm.of_schedule cs in
  List.iter
    (fun (s : Fsm.state) ->
      let outs = Fsm.outgoing fsm s.Fsm.sid in
      Alcotest.(check bool) "has transition" true (outs <> []);
      match outs with
      | [ { Fsm.t_guard = Fsm.G_always; _ } ] -> ()
      | [ t1; t2 ] -> (
          match (t1.Fsm.t_guard, t2.Fsm.t_guard) with
          | Fsm.G_cond (p1, n1), Fsm.G_cond (p2, n2) ->
              Alcotest.(check bool) "complementary" true (p1 <> p2 && n1 = n2)
          | _ -> Alcotest.fail "branch guards must be complementary")
      | _ -> Alcotest.fail "state must have 1 or 2 transitions")
    (Fsm.states fsm)

(* ---- synthesized next-state logic ---- *)

let expected_next fsm sid cond_value =
  let taken =
    List.find
      (fun (tr : Fsm.transition) ->
        match tr.Fsm.t_guard with
        | Fsm.G_always -> true
        | Fsm.G_cond (pol, _) -> pol = cond_value)
      (Fsm.outgoing fsm sid)
  in
  taken.Fsm.t_to

let test_ctrl_synth_matches_fsm () =
  let cs = sqrt_cs () in
  let fsm = Fsm.of_schedule cs in
  List.iter
    (fun style ->
      let c = Ctrl_synth.synthesize ~style fsm in
      List.iter
        (fun (s : Fsm.state) ->
          List.iter
            (fun cond_value ->
              let conds =
                List.map (fun key -> (key, cond_value)) (Ctrl_synth.cond_signals c)
              in
              let got = Ctrl_synth.next_state c ~state:s.Fsm.sid ~conds in
              let want = expected_next fsm s.Fsm.sid cond_value in
              Alcotest.(check int)
                (Printf.sprintf "%s state %d cond %b" (Encoding.style_to_string style)
                   s.Fsm.sid cond_value)
                want got)
            [ true; false ])
        (Fsm.states fsm))
    [ Encoding.Binary; Encoding.Gray; Encoding.One_hot ]

let test_minimization_helps () =
  let cs = sqrt_cs () in
  let fsm = Fsm.of_schedule cs in
  let c = Ctrl_synth.synthesize ~style:Encoding.Binary fsm in
  Alcotest.(check bool) "minimized not worse than direct" true
    (Ctrl_synth.literal_cost c <= Ctrl_synth.direct_literal_cost c);
  Alcotest.(check bool) "pla rows positive" true (Ctrl_synth.pla_rows c > 0)

(* The next-state tables the way they were built minterm by minterm:
   each of the 2^n assignments looked up by its state code, a
   don't-care for every output when the code is unused, else on for
   each bit of its first enabled transition's target (its own code when
   none is), then minimized by the level-by-level oracle. *)
let oracle_next_logic c =
  let fsm = Ctrl_synth.fsm c in
  let state_bits = Ctrl_synth.n_state_bits c and n_inputs = Ctrl_synth.n_inputs c in
  let conds = Ctrl_synth.cond_signals c in
  let by_code = Hashtbl.create 16 in
  List.iter
    (fun (s : Fsm.state) ->
      let move (tr : Fsm.transition) =
        let enabled =
          match tr.Fsm.t_guard with
          | Fsm.G_always -> fun _ -> true
          | Fsm.G_cond (pol, nid) ->
              let i = Option.get (List.find_index (( = ) (s.Fsm.block, nid)) conds) in
              fun x -> x land (1 lsl (state_bits + i)) <> 0 = pol
        in
        (enabled, Ctrl_synth.state_code c tr.Fsm.t_to)
      in
      Hashtbl.replace by_code (Ctrl_synth.state_code c s.Fsm.sid)
        (List.map move (Fsm.outgoing fsm s.Fsm.sid)))
    (Fsm.states fsm);
  let on = Array.make state_bits [] and dc = ref [] in
  for x = 0 to (1 lsl n_inputs) - 1 do
    let code = x land ((1 lsl state_bits) - 1) in
    match Hashtbl.find_opt by_code code with
    | None -> dc := x :: !dc
    | Some moves ->
        let target =
          match List.find_opt (fun (enabled, _) -> enabled x) moves with
          | Some (_, target) -> target
          | None -> code
        in
        for k = 0 to state_bits - 1 do
          if target land (1 lsl k) <> 0 then on.(k) <- x :: on.(k)
        done
  done;
  Array.map
    (fun on_set -> Hls_reference.Qm_reference.minimize ~n_inputs ~on_set ~dc_set:!dc ())
    on

let encodings = [ Encoding.Binary; Encoding.Gray; Encoding.One_hot ]

(* Every distinct controller of a sweep (a memoized sweep shares one
   next-state array between the designs of one FSM) with at most
   Qm.max_inputs inputs must ship the oracle's logic. The count of
   controllers checked. *)
let check_next_logic_against_oracle name engine points =
  let seen = ref [] in
  List.iter
    (fun (d : Hls_core.Flow.design) ->
      let c = d.Hls_core.Flow.controller in
      let logic = Ctrl_synth.next_logic c in
      if Ctrl_synth.n_inputs c <= Qm.max_inputs && not (List.memq logic !seen) then begin
        seen := logic :: !seen;
        if logic <> oracle_next_logic c then
          Alcotest.failf "%s: %s next-state logic differs from the per-minterm oracle" name
            (Encoding.style_to_string (Ctrl_synth.style c))
      end)
    (List.map
       (function Ok d -> d | Error _ -> Alcotest.failf "%s: a point failed lint" name)
       (Hls_core.Dse.run_result engine points));
  List.length !seen

let test_next_logic_workloads () =
  List.iter
    (fun (name, src) ->
      let engine = Hls_core.Dse.create src in
      let checked =
        check_next_logic_against_oracle name engine
        (List.concat_map
           (fun encoding ->
             List.map snd
               (Hls_core.Explore.cross
                  ~base:{ Hls_core.Flow.default_options with Hls_core.Flow.encoding }
                  ~schedulers:Hls_core.Explore.default_schedulers
                  ~limits:Hls_core.Explore.default_limits ()))
             encodings)
      in
      Alcotest.(check bool) (name ^ ": some controller checked") true (checked > 0))
    Hls_core.Workloads.all

(* some programs' controllers all have more than Qm.max_inputs inputs *)
let test_next_logic_random_programs () =
  let checked =
    List.fold_left
      (fun n seed ->
        n
        + check_next_logic_against_oracle
            (Printf.sprintf "program %d" seed)
            (Hls_core.Dse.create_program (Gen.program_of_seed seed))
            (List.map
               (fun encoding -> { Hls_core.Flow.default_options with Hls_core.Flow.encoding })
               encodings))
      0 (List.init 20 succ)
  in
  Alcotest.(check bool) "most programs checked" true (checked >= 20)

(* ---- microcode ---- *)

let test_microcode_costs () =
  let fields =
    [ { Microcode.fname = "enables"; fwidth = 6 }; { Microcode.fname = "op"; fwidth = 3 } ]
  in
  let words = [| [ 1; 2 ]; [ 1; 2 ]; [ 5; 0 ]; [ 1; 2 ] |] in
  let mc = Microcode.make ~fields ~words in
  Alcotest.(check int) "states" 4 (Microcode.n_states mc);
  Alcotest.(check int) "horizontal" (4 * 9) (Microcode.horizontal_bits mc);
  Alcotest.(check int) "unique" 2 (Microcode.unique_words mc);
  (* dictionary: 4 pointers of 1 bit + 2 words of 9 bits *)
  Alcotest.(check int) "dictionary" (4 + 18) (Microcode.dictionary_bits mc);
  (* vertical: enables takes 2 values -> 1 bit; op takes 2 values -> 1 bit *)
  Alcotest.(check int) "vertical" (4 * 2) (Microcode.vertical_bits mc);
  Alcotest.(check bool) "dictionary wins on duplicates" true
    (Microcode.dictionary_bits mc < Microcode.horizontal_bits mc)

let test_microcode_validation () =
  let fields = [ { Microcode.fname = "f"; fwidth = 2 } ] in
  Alcotest.(check bool) "range" true
    (try
       ignore (Microcode.make ~fields ~words:[| [ 4 ] |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "arity" true
    (try
       ignore (Microcode.make ~fields ~words:[| [ 1; 2 ] |]);
       false
     with Invalid_argument _ -> true);
  (* a field as wide as a non-negative int takes any of them *)
  let wide = { Microcode.fname = "w"; fwidth = Sys.int_size - 1 } in
  Alcotest.(check int) "int-wide field" (Sys.int_size - 1)
    (Microcode.horizontal_bits (Microcode.make ~fields:[ wide ] ~words:[| [ max_int ] |]));
  Alcotest.(check bool) "negative never fits" false (Microcode.fits wide (-1))

let () =
  Alcotest.run "ctrl"
    [
      ( "encoding",
        [
          Alcotest.test_case "widths" `Quick test_encoding_widths;
          Alcotest.test_case "distinct" `Quick test_encoding_distinct;
          Alcotest.test_case "gray adjacency" `Quick test_gray_adjacent;
          Alcotest.test_case "one-hot" `Quick test_one_hot_codes;
        ] );
      ("logic", [ Alcotest.test_case "eval/render" `Quick test_logic_eval ]);
      ( "qm",
        [
          Alcotest.test_case "classics" `Quick test_qm_classics;
          Alcotest.test_case "rejects overlap" `Quick test_qm_rejects_overlap;
          Alcotest.test_case "rejects out-of-range minterms" `Quick
            test_qm_rejects_out_of_range_minterms;
          Alcotest.test_case "input cap" `Quick test_qm_input_cap;
          QCheck_alcotest.to_alcotest prop_qm_equivalent;
          QCheck_alcotest.to_alcotest prop_qm_no_more_literals_than_minterms;
          QCheck_alcotest.to_alcotest prop_qm_matches_reference;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "sqrt fsm" `Quick test_fsm_sqrt;
          Alcotest.test_case "transition totality" `Quick test_fsm_transition_totality;
        ] );
      ( "ctrl_synth",
        [
          Alcotest.test_case "logic matches FSM (all encodings)" `Quick test_ctrl_synth_matches_fsm;
          Alcotest.test_case "minimization helps" `Quick test_minimization_helps;
          Alcotest.test_case "next-state logic matches the oracle (workloads)" `Quick
            test_next_logic_workloads;
          Alcotest.test_case "next-state logic matches the oracle (random programs)" `Quick
            test_next_logic_random_programs;
        ] );
      ( "microcode",
        [
          Alcotest.test_case "costs" `Quick test_microcode_costs;
          Alcotest.test_case "validation" `Quick test_microcode_validation;
        ] );
    ]
