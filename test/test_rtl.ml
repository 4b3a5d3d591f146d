(* RTL tests: component library and module binding, datapath
   construction with netlist checks, wires, structural emission, and
   area/latency estimation trends. *)

open Hls_cdfg
open Hls_core
open Hls_rtl

(* ---- component binding ---- *)

let test_bind_cheapest () =
  let c = Component.bind ~cls:Op.C_alu ~ops:[ Op.Add; Op.Sub; Op.Incr ] in
  Alcotest.(check string) "add_sub suffices" "add_sub" c.Component.cname;
  let c2 = Component.bind ~cls:Op.C_alu ~ops:[ Op.Add; Op.And ] in
  Alcotest.(check string) "logic needs full alu" "alu" c2.Component.cname;
  let c3 = Component.bind ~cls:Op.C_mul ~ops:[ Op.Mul ] in
  Alcotest.(check string) "multiplier" "mult" c3.Component.cname;
  let c4 = Component.bind ~cls:Op.C_div ~ops:[ Op.Div; Op.Mod ] in
  Alcotest.(check string) "divider" "divider" c4.Component.cname

let test_bind_failure () =
  Alcotest.(check bool) "mul on alu fails" true
    (try
       ignore (Component.bind ~cls:Op.C_alu ~ops:[ Op.Mul ]);
       false
     with Not_found -> true)

let test_area_scales_with_width () =
  let c = Component.find "mult" in
  Alcotest.(check bool) "wider is bigger" true
    (Component.area c ~width:32 > Component.area c ~width:8)

(* ---- wires ---- *)

let test_wire_eval () =
  let ty = Hls_lang.Ast.Tint 8 in
  let w =
    Wire.W_mux
      ( Wire.W_zdetect (Wire.W_reg "a"),
        Wire.W_shl (Wire.W_const (3, ty), 1, ty),
        Wire.W_reg "b",
        ty )
  in
  let reg = function "a" -> 0 | "b" -> 9 | _ -> assert false in
  let fu _ = assert false in
  Alcotest.(check int) "mux true path" 6 (Wire.eval w ~reg ~fu);
  let reg2 = function "a" -> 5 | "b" -> 9 | _ -> assert false in
  Alcotest.(check int) "mux false path" 9 (Wire.eval w ~reg:reg2 ~fu);
  Alcotest.(check (list string)) "regs read" [ "a"; "b" ] (Wire.regs_read w);
  Alcotest.(check bool) "mux adds delay" true (Wire.depth_delay_ns w > 0.0)

(* ---- datapath + checks on every workload ---- *)

let test_all_workloads_check () =
  List.iter
    (fun (name, src) ->
      let d = Flow.synthesize src in
      match Check.run d.Flow.datapath with
      | Ok () -> ()
      | Error ds ->
          Alcotest.failf "%s: %s" name
            (String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds)))
    Workloads.all

(* [dp] with one state's activations (loads) replaced *)
let with_acts (dp : Datapath.t) s acts =
  let per_state = Array.copy dp.Datapath.acts in
  per_state.(s) <- acts;
  { dp with Datapath.acts = per_state }

let with_loads (dp : Datapath.t) s loads =
  let per_state = Array.copy dp.Datapath.loads in
  per_state.(s) <- loads;
  { dp with Datapath.loads = per_state }

(* the first state with an entry *)
let first_busy per_state =
  let rec go s =
    if s >= Array.length per_state then Alcotest.fail "no state has an entry"
    else if per_state.(s) <> [||] then s
    else go (s + 1)
  in
  go 0

let test_check_catches_double_booking () =
  (* force two ops of the same class into one step with a 1-unit clique
     allocation — impossible, so fabricate the defect directly: another
     state's operation lands on a busy unit *)
  let d = Flow.synthesize Workloads.sqrt_newton in
  let dp = d.Flow.datapath in
  let acts = dp.Datapath.acts in
  match List.filter (fun s -> acts.(s) <> [||]) (List.init (Array.length acts) Fun.id) with
  | s :: other :: _ ->
      let clash = { (acts.(other).(0)) with Datapath.a_fu = acts.(s).(0).Datapath.a_fu } in
      (match Check.run (with_acts dp s (Array.append acts.(s) [| clash |])) with
      | Ok () -> Alcotest.fail "double booking not caught"
      | Error _ -> ())
  | _ -> Alcotest.fail "fewer than two busy states"

(* ---- one failure test per Check rule ---- *)

let expect_code code dp =
  match Check.run dp with
  | Ok () -> Alcotest.failf "%s not caught" code
  | Error ds ->
      Alcotest.(check bool) (code ^ " reported") true
        (List.exists
           (fun (d : Hls_analysis.Diagnostic.t) -> d.Hls_analysis.Diagnostic.code = code)
           ds)

let checked = lazy (Flow.synthesize Workloads.gcd)
let checked_dp () = (Lazy.force checked).Flow.datapath
let i8 = Hls_lang.Ast.Tint 8

(* [dp] with one more load in state [s] *)
let add_load (dp : Datapath.t) s l = with_loads dp s (Array.append [| l |] dp.Datapath.loads.(s))

let test_rtl001_missing_reg_read () =
  let dp = checked_dp () in
  let reg = dp.Datapath.regs.(0).Datapath.rname in
  expect_code "RTL001" (add_load dp 0 { Datapath.l_reg = reg; l_wire = Wire.W_reg "ghost" })

let test_rtl002_double_booking () =
  let dp = checked_dp () in
  let s = first_busy dp.Datapath.acts in
  let acts = dp.Datapath.acts.(s) in
  expect_code "RTL002" (with_acts dp s (Array.append [| acts.(0) |] acts))

let test_rtl003_inexecutable_op () =
  let dp = checked_dp () in
  let divides (a : Datapath.activity) =
    Component.executes dp.Datapath.fus.(a.Datapath.a_fu).Datapath.comp Op.Div
  in
  match
    List.find_opt
      (fun s -> not (Array.for_all divides dp.Datapath.acts.(s)))
      (List.init (Array.length dp.Datapath.acts) Fun.id)
  with
  | Some s ->
      let acts =
        Array.map
          (fun (a : Datapath.activity) ->
            if divides a then a else { a with Datapath.a_op = Op.Div })
          dp.Datapath.acts.(s)
      in
      expect_code "RTL003" (with_acts dp s acts)
  | None -> Alcotest.fail "every unit divides"

let test_rtl004_same_state_chaining () =
  let dp = checked_dp () in
  let s = first_busy dp.Datapath.acts in
  let acts = Array.copy dp.Datapath.acts.(s) in
  acts.(0) <- { (acts.(0)) with Datapath.a_args = [ Wire.W_fu_out (acts.(0).Datapath.a_fu, i8) ] };
  expect_code "RTL004" (with_acts dp s acts)

let test_rtl005_double_drive () =
  let dp = checked_dp () in
  let s = first_busy dp.Datapath.loads in
  expect_code "RTL005" (add_load dp s dp.Datapath.loads.(s).(0))

let test_rtl006_load_missing_reg () =
  let dp = checked_dp () in
  expect_code "RTL006" (add_load dp 0 { Datapath.l_reg = "ghost"; l_wire = Wire.W_const (0, i8) })

let test_rtl007_idle_unit_consumed () =
  let dp = checked_dp () in
  let reg = dp.Datapath.regs.(0).Datapath.rname in
  (* a state in which unit 0 performs nothing *)
  let idle (acts : Datapath.activity array) =
    Array.for_all (fun (a : Datapath.activity) -> a.Datapath.a_fu <> 0) acts
  in
  let rec find s =
    if s >= Array.length dp.Datapath.acts then Alcotest.fail "unit 0 is busy in every state"
    else if idle dp.Datapath.acts.(s) then s
    else find (s + 1)
  in
  expect_code "RTL007"
    (add_load dp (find 0) { Datapath.l_reg = reg; l_wire = Wire.W_fu_out (0, i8) })

let test_rtl008_branch_without_cond () =
  let dp = checked_dp () in
  Alcotest.(check bool) "gcd branches" true (Array.exists Option.is_some dp.Datapath.conds);
  expect_code "RTL008" { dp with Datapath.conds = Array.map (fun _ -> None) dp.Datapath.conds }

let test_rtl009_ghost_unit () =
  let dp = checked_dp () in
  let s = first_busy dp.Datapath.acts in
  let acts = Array.copy dp.Datapath.acts.(s) in
  acts.(0) <- { (acts.(0)) with Datapath.a_fu = 99 };
  expect_code "RTL009" (with_acts dp s acts)

(* ---- layout invariants ---- *)

(* What the datapath's consumers read without re-checking: one
   activation, load and condition entry per FSM state, [fus.(i)] is the
   allocation's unit [i] (its class and its operation count), register
   names strictly ascending. *)
let check_layout tag (d : Flow.design) =
  let dp = d.Flow.datapath in
  let n_states = Hls_ctrl.Fsm.n_states dp.Datapath.fsm in
  let per_state field n =
    if n <> n_states then Alcotest.failf "%s: %d %s entries for %d states" tag n field n_states
  in
  per_state "acts" (Array.length dp.Datapath.acts);
  per_state "loads" (Array.length dp.Datapath.loads);
  per_state "conds" (Array.length dp.Datapath.conds);
  let fus = dp.Datapath.fus in
  let instances = d.Flow.fu.Hls_alloc.Fu_alloc.instances in
  if Array.length fus <> List.length instances then
    Alcotest.failf "%s: %d units for %d instances" tag (Array.length fus) (List.length instances);
  let ops = Array.make (Array.length fus) 0 in
  Array.iter
    (Array.iter (fun (a : Datapath.activity) -> ops.(a.Datapath.a_fu) <- ops.(a.Datapath.a_fu) + 1))
    dp.Datapath.acts;
  List.iter
    (fun (inst : Hls_alloc.Fu_alloc.instance) ->
      let i = inst.Hls_alloc.Fu_alloc.fu_id in
      if
        i < 0 || i >= Array.length fus
        || fus.(i).Datapath.comp.Component.cls <> inst.Hls_alloc.Fu_alloc.fu_cls
        || ops.(i) <> List.length inst.Hls_alloc.Fu_alloc.ops
      then Alcotest.failf "%s: fus.(%d) is not unit %d" tag i i)
    instances;
  Array.iteri
    (fun i (r : Datapath.reg_def) ->
      if i > 0 && String.compare dp.Datapath.regs.(i - 1).Datapath.rname r.Datapath.rname >= 0
      then
        Alcotest.failf "%s: register %s after %s" tag r.Datapath.rname
          dp.Datapath.regs.(i - 1).Datapath.rname)
    dp.Datapath.regs

let check_layout_cross tag engine ~schedulers =
  List.iter
    (fun (label, opts) ->
      match Dse.eval_result engine opts with
      | Ok d -> check_layout (tag ^ " " ^ label) d
      | Error ds ->
          Alcotest.failf "%s %s: %s" tag label
            (String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds)))
    (Explore.cross ~base:Flow.default_options ~schedulers ~limits:Explore.default_limits ())

let test_layout_workloads () =
  List.iter
    (fun (name, src) ->
      (* biquad3's flat block is past what branch-and-bound and 0/1
         programming finish on *)
      let schedulers =
        if name = "biquad3" then
          List.filter
            (fun s -> s <> Flow.Branch_bound && s <> Flow.Ilp_exact)
            Explore.default_schedulers
        else Explore.default_schedulers
      in
      check_layout_cross name (Dse.create src) ~schedulers)
    Workloads.all

let test_layout_random () =
  for seed = 0 to 199 do
    check_layout_cross
      (Printf.sprintf "seed %d" seed)
      (Dse.create_program (Gen.program_of_seed seed))
      ~schedulers:Explore.default_schedulers
  done

(* ---- emission ---- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_emit_verilog () =
  let d = Flow.synthesize Workloads.sqrt_newton in
  let v = Emit.verilog ~name:"sqrt" d.Flow.datapath in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (contains v fragment))
    [ "module sqrt"; "endmodule"; "case (state)"; "posedge clk"; "assign done" ]

(* Identifiers of Verilog text, comments dropped, in order. *)
let verilog_identifiers text =
  let code =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           match String.index_opt line '/' with
           | Some i when i + 1 < String.length line && line.[i + 1] = '/' -> String.sub line 0 i
           | _ -> line)
    |> String.concat "\n"
  in
  let is_start c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let is_part c = is_start c || (c >= '0' && c <= '9') in
  let n = String.length code in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if is_start code.[i] then (
      let j = ref i in
      while !j < n && is_part code.[!j] do incr j done;
      scan !j (String.sub code i (!j - i) :: acc))
    else if code.[i] >= '0' && code.[i] <= '9' then (
      (* a number literal, possibly sized: 3'b101 *)
      let j = ref i in
      while !j < n && (is_part code.[!j] || code.[!j] = '\'') do incr j done;
      scan !j acc)
    else scan (i + 1) acc
  in
  scan 0 []

let test_emit_reads_declared_nets () =
  let keywords =
    [ "module"; "endmodule"; "input"; "output"; "reg"; "signed"; "assign"; "always";
      "posedge"; "begin"; "end"; "case"; "endcase"; "default"; "if"; "else" ]
  in
  List.iter
    (fun (name, src) ->
      let v = Emit.verilog ~name (Flow.synthesize src).Flow.datapath in
      (* the first non-keyword identifier after a declaring keyword is
         declared; every other non-keyword identifier is a read *)
      let rec walk declaring declared reads = function
        | [] -> (declared, reads)
        | id :: rest when List.mem id keywords ->
            walk (declaring || List.mem id [ "module"; "input"; "output"; "reg" ]) declared reads
              rest
        | id :: rest when declaring -> walk false (id :: declared) reads rest
        | id :: rest -> walk false declared (id :: reads) rest
      in
      let declared, reads = walk false [] [] (verilog_identifiers v) in
      match List.filter (fun id -> not (List.mem id declared)) reads with
      | [] -> ()
      | undeclared ->
          Alcotest.failf "%s reads undeclared %s" name
            (String.concat ", " (List.sort_uniq compare undeclared)))
    Workloads.all

let test_emit_dot () =
  let d = Flow.synthesize Workloads.gcd in
  let dot = Emit.dot d.Flow.datapath in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "has register node" true (contains dot "reg_")

(* ---- estimation ---- *)

let test_estimate_trends () =
  let opts limits = { Flow.default_options with Flow.limits } in
  let serial = Flow.synthesize ~options:(opts Hls_sched.Limits.Serial) Workloads.sqrt_newton in
  let two = Flow.synthesize ~options:(opts Hls_sched.Limits.two_fu) Workloads.sqrt_newton in
  Alcotest.(check bool) "two FUs faster" true
    (two.Flow.estimate.Estimate.latency_ns < serial.Flow.estimate.Estimate.latency_ns);
  List.iter
    (fun (d : Flow.design) ->
      let e = d.Flow.estimate in
      Alcotest.(check bool) "areas positive" true
        (e.Estimate.fu_area > 0 && e.Estimate.reg_area > 0 && e.Estimate.ctrl_area > 0);
      Alcotest.(check int) "total is the sum"
        (e.Estimate.fu_area + e.Estimate.reg_area + e.Estimate.mux_area + e.Estimate.ctrl_area)
        e.Estimate.total_area;
      Alcotest.(check bool) "cycle covers a unit delay" true (e.Estimate.cycle_ns > 10.0))
    [ serial; two ]

let test_estimate_row () =
  let d = Flow.synthesize Workloads.gcd in
  Alcotest.(check int) "row arity" 4 (List.length (Estimate.to_row d.Flow.estimate))

let () =
  Alcotest.run "rtl"
    [
      ( "component",
        [
          Alcotest.test_case "bind cheapest" `Quick test_bind_cheapest;
          Alcotest.test_case "bind failure" `Quick test_bind_failure;
          Alcotest.test_case "area scaling" `Quick test_area_scales_with_width;
        ] );
      ("wire", [ Alcotest.test_case "eval" `Quick test_wire_eval ]);
      ( "datapath",
        [
          Alcotest.test_case "all workloads pass checks" `Quick test_all_workloads_check;
          Alcotest.test_case "lint catches double booking" `Quick test_check_catches_double_booking;
          Alcotest.test_case "layout: workloads x default cross" `Slow test_layout_workloads;
          Alcotest.test_case "layout: random programs" `Slow test_layout_random;
        ] );
      ( "check rules",
        [
          Alcotest.test_case "RTL001 missing register read" `Quick test_rtl001_missing_reg_read;
          Alcotest.test_case "RTL002 double booking" `Quick test_rtl002_double_booking;
          Alcotest.test_case "RTL003 inexecutable op" `Quick test_rtl003_inexecutable_op;
          Alcotest.test_case "RTL004 same-state chaining" `Quick test_rtl004_same_state_chaining;
          Alcotest.test_case "RTL005 double drive" `Quick test_rtl005_double_drive;
          Alcotest.test_case "RTL006 load into missing register" `Quick test_rtl006_load_missing_reg;
          Alcotest.test_case "RTL007 idle unit consumed" `Quick test_rtl007_idle_unit_consumed;
          Alcotest.test_case "RTL008 branch without cond" `Quick test_rtl008_branch_without_cond;
          Alcotest.test_case "RTL009 ghost unit" `Quick test_rtl009_ghost_unit;
        ] );
      ( "emit",
        [
          Alcotest.test_case "verilog" `Quick test_emit_verilog;
          Alcotest.test_case "verilog reads declared nets" `Quick test_emit_reads_declared_nets;
          Alcotest.test_case "dot" `Quick test_emit_dot;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "trends" `Quick test_estimate_trends;
          Alcotest.test_case "report row" `Quick test_estimate_row;
        ] );
    ]
