(* Allocation tests: left-edge register packing (REAL), clique
   partitioning (Fig 7), greedy constructive allocation with local
   cost-aware selection (Fig 6), lifetime analysis, register allocation
   and interconnect/bus allocation. *)

open Hls_lang
open Hls_util
open Hls_cdfg
open Hls_sched
open Hls_alloc

let i16 = Ast.Tint 16

(* ---- left edge ---- *)

let test_left_edge_basic () =
  let mk = Interval.make in
  let items = [ (0, mk 1 3); (1, mk 2 4); (2, mk 4 6); (3, mk 5 7) ] in
  let assignment, tracks = Left_edge.assign items in
  Alcotest.(check int) "tracks" 2 tracks;
  (* value 2 reuses value 0's register (dies at 3, born at 4) *)
  Alcotest.(check (option int)) "reuse" (List.assoc_opt 0 assignment)
    (List.assoc_opt 2 assignment)

let prop_left_edge_optimal =
  QCheck.Test.make ~name:"left edge uses max-overlap registers (REAL optimal)"
    ~count:300 Gen.intervals_arbitrary
    (fun seed ->
      let items = Gen.intervals_of_seed seed in
      let _, tracks = Left_edge.assign items in
      tracks = Interval.max_overlap (List.map snd items))

let prop_left_edge_no_conflicts =
  QCheck.Test.make ~name:"left edge never overlaps within a track" ~count:300
    Gen.intervals_arbitrary
    (fun seed ->
      let items = Gen.intervals_of_seed seed in
      let assignment, _ = Left_edge.assign items in
      List.for_all
        (fun (k1, t1) ->
          List.for_all
            (fun (k2, t2) ->
              k1 >= k2 || t1 <> t2
              || not (Interval.overlaps (List.assoc k1 items) (List.assoc k2 items)))
            assignment)
        assignment)

(* ---- clique partitioning ---- *)

let test_clique_small () =
  (* 0-1 incompatible; everything else compatible: two groups *)
  let compatible i j = not ((i = 0 && j = 1) || (i = 1 && j = 0)) in
  let groups = Clique.partition ~n:4 ~compatible in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let covered = List.sort compare (List.concat groups) in
  Alcotest.(check (list int)) "cover" [ 0; 1; 2; 3 ] covered

let prop_clique_valid =
  QCheck.Test.make ~name:"clique groups are pairwise compatible and cover" ~count:200
    QCheck.(pair (int_bound 1000) (int_range 1 12))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      let matrix = Array.init n (fun _ -> Array.init n (fun _ -> Random.State.bool rng)) in
      let compatible i j = matrix.(min i j).(max i j) in
      let groups = Clique.partition ~n ~compatible in
      let cover = List.sort compare (List.concat groups) = List.init n Fun.id in
      let valid =
        List.for_all
          (fun g ->
            List.for_all
              (fun a -> List.for_all (fun b -> a = b || compatible a b) g)
              g)
          groups
      in
      cover && valid)

let prop_clique_matches_reference =
  QCheck.Test.make
    ~name:"bitset clique partition is bit-identical to the reference" ~count:200
    QCheck.(pair (int_bound 1000) (int_range 0 24))
    (fun (seed, n) ->
      let rng = Random.State.make [| seed |] in
      (* vary density so sparse and dense graphs are both covered *)
      let p = 1 + Random.State.int rng 9 in
      let matrix =
        Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int rng 10 < p))
      in
      let compatible i j = matrix.(min i j).(max i j) in
      Clique.partition ~n ~compatible = Hls_reference.Clique_reference.partition ~n ~compatible)

(* ---- Fig 6 / Fig 7 example ----

   Schedule (one block):
     step 1:  a1 = x + y          b1 = z + w
     step 2:  a2 = z + v
     step 3:  a3 = a2 + z
   Adds a1 and b1 conflict; {a1|b1, a2, a3} can share. Clique partition
   covers the four adds with two adders (Fig 7). Greedy with min-mux
   selection puts a2 on b1's adder (port sources z/w already half match:
   cost 1) where first-fit picks a1's adder (cost 2) — Fig 6's "assigned
   to adder2 since the increase in multiplexing cost was zero/least". *)

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
  Cfg.validate cfg;
  (* force the intended steps: a1,b1 @1; a2 @2; a3 @3 *)
  let steps = [ (a1, 1); (b1, 1); (a2, 2); (a3, 3) ] in
  let cs =
    Cfg_sched.init cfg (fun bid ->
        Schedule.make (Cfg.dfg cfg bid) ~steps:(fun nid -> List.assoc nid steps))
  in
  (cs, (a1, b1, a2, a3))

let test_fig7_clique_two_adders () =
  let cs, (a1, b1, a2, a3) = fig67_design () in
  let alloc = Fu_alloc.by_clique cs in
  Alcotest.(check int) "two adders" 2 (Fu_alloc.n_units alloc);
  (* a2 and a3 share; a1 and b1 are split *)
  Alcotest.(check bool) "a2/a3 share" true
    (Fu_alloc.of_op alloc (0, a2) = Fu_alloc.of_op alloc (0, a3));
  Alcotest.(check bool) "a1/b1 split" true
    (Fu_alloc.of_op alloc (0, a1) <> Fu_alloc.of_op alloc (0, b1))

let test_fig6_greedy_cost_aware () =
  let cs, _ = fig67_design () in
  let min_mux = Fu_alloc.greedy ~selection:`Min_mux cs in
  let first_fit = Fu_alloc.greedy ~selection:`First_fit cs in
  Alcotest.(check int) "both use two adders" (Fu_alloc.n_units min_mux)
    (Fu_alloc.n_units first_fit);
  let cost_min = Fu_alloc.mux_inputs cs min_mux in
  let cost_ff = Fu_alloc.mux_inputs cs first_fit in
  Alcotest.(check bool)
    (Printf.sprintf "min-mux (%d) cheaper than first-fit (%d)" cost_min cost_ff)
    true (cost_min < cost_ff)

let test_greedy_never_double_books () =
  let cs, _ = fig67_design () in
  let alloc = Fu_alloc.greedy cs in
  List.iter
    (fun (inst : Fu_alloc.instance) ->
      let slots =
        List.map (fun (r : Fu_alloc.op_ref) -> (r.Fu_alloc.bid, r.Fu_alloc.step)) inst.Fu_alloc.ops
      in
      Alcotest.(check int) "no slot reused" (List.length slots)
        (List.length (List.sort_uniq compare slots)))
    alloc.Fu_alloc.instances

(* ---- lifetime analysis ---- *)

let scheduled_sqrt () =
  let _, cfg = Compile.compile_source Hls_core.Workloads.sqrt_newton in
  let cfg =
    Hls_transform.Passes.run_pipeline ~outputs:[ "y" ]
      (Hls_transform.Passes.standard @ [ Hls_transform.Passes.find_exn "loop-recode" ])
      cfg
  in
  Gen.schedule_cfg (List_sched.schedule_dep ~limits:Limits.two_fu) cfg

let test_lifetime_sqrt_body () =
  let cs = scheduled_sqrt () in
  let cfg = Cfg_sched.cfg cs in
  let infos = Lifetime.values (Lifetime.table cs) 1 in
  (* exactly one temporary: the division result crosses from step 1 into
     the step-2 addition; everything else lives in variable registers *)
  (match Lifetime.temps infos with
  | [ (nid, iv) ] ->
      (match Dfg.op (Cfg.dfg cfg 1) nid with
      | Op.Div -> ()
      | op -> Alcotest.failf "temp should hold the division, got %s" (Op.to_string op));
      Alcotest.(check int) "born step 1" 1 iv.Interval.lo;
      Alcotest.(check int) "dies before step 2" 1 iv.Interval.hi
  | l -> Alcotest.failf "expected one temp, got %d" (List.length l));
  (* reads of x and y are In_variable *)
  List.iter
    (fun (info : Lifetime.value_info) ->
      match Dfg.op (Cfg.dfg cfg 1) info.Lifetime.nid with
      | Op.Read v -> (
          match info.Lifetime.storage with
          | Lifetime.In_variable v' ->
              Alcotest.(check string) "read storage" v v'
          | Lifetime.Temp _ -> Alcotest.failf "read of %s needs temp" v
          | Lifetime.No_storage -> ())
      | _ -> ())
    infos

let test_lifetime_needs_temp () =
  (* serial schedule: t = a*b produced step 1, consumed step 3 and not
     written to a live variable -> needs a temp *)
  let g = Dfg.create () in
  let a = Dfg.add g (Op.Read "a") [] i16 in
  let b = Dfg.add g (Op.Read "b") [] i16 in
  let t = Dfg.add g Op.Mul [ a; b ] i16 in
  let u = Dfg.add g Op.Add [ a; b ] i16 in
  let s = Dfg.add g Op.Sub [ u; b ] i16 in
  let r = Dfg.add g Op.Add [ t; s ] i16 in
  ignore (Dfg.add g (Op.Write "y") [ r ] i16);
  let sched =
    Schedule.make g ~steps:(fun nid -> List.assoc nid [ (t, 1); (u, 2); (s, 3); (r, 4) ])
  in
  let infos = Lifetime.analyze sched ~term_cond:None in
  (* t, u and s all cross step boundaries unattached to a variable *)
  let temps = Lifetime.temps infos in
  Alcotest.(check int) "three temps" 3 (List.length temps);
  (match List.assoc_opt t temps with
  | Some iv ->
      Alcotest.(check int) "mul born" 1 iv.Interval.lo;
      Alcotest.(check int) "mul dies" 3 iv.Interval.hi
  | None -> Alcotest.fail "mul needs a temp");
  (* left edge packs them into two registers (t conflicts with both) *)
  let _, tracks = Left_edge.assign temps in
  Alcotest.(check int) "two registers suffice" 2 tracks

let test_lifetime_read_overwritten () =
  (* v := v + 1 at step 1; old v still read at step 2 -> old value needs a
     temp from the overwrite step on *)
  let g = Dfg.create () in
  let v = Dfg.add g (Op.Read "v") [] i16 in
  let one = Dfg.add g (Op.Const 1) [] i16 in
  let inc = Dfg.add g Op.Add [ v; one ] i16 in
  let use = Dfg.add g Op.Mul [ v; v ] i16 in
  ignore (Dfg.add g (Op.Write "v") [ inc ] i16);
  ignore (Dfg.add g (Op.Write "y") [ use ] i16);
  let sched =
    Schedule.make g ~steps:(fun nid -> List.assoc nid [ (inc, 1); (use, 2) ])
  in
  let infos = Lifetime.analyze sched ~term_cond:None in
  match Lifetime.temps infos with
  | [ (nid, iv) ] ->
      Alcotest.(check int) "temp holds the old read" v nid;
      Alcotest.(check int) "from overwrite step" 1 iv.Interval.lo
  | l -> Alcotest.failf "expected one temp, got %d" (List.length l)

(* ---- variable conflicts (the register-sharing relation) ---- *)

let conflict cs ~outputs a b =
  let ix = Lifetime.interference (Lifetime.table cs) ~outputs in
  let index v =
    match Array.find_index (String.equal v) (Lifetime.vars ix) with
    | Some i -> i
    | None -> Alcotest.failf "%s is not a variable of the program" v
  in
  Lifetime.conflict ix (index a) (index b)

let test_conflict_sqrt () =
  let cs = scheduled_sqrt () in
  Alcotest.(check bool) "x interferes y" true (conflict cs ~outputs:[ "y" ] "x" "y")

(* single block: p and q are never read back (forwarded), so their
   registers are occupied only where each write latches *)
let test_conflict_one_block () =
  let _, cfg =
    Compile.compile_source
      "module m(input a: int<8>; output y: int<8>); var p, q: int<8>; begin p := a + 1; y := p; q := a + 2; y := q; end"
  in
  let scheduled limits = Gen.schedule_cfg (List_sched.schedule_dep ~limits) cfg in
  Alcotest.(check bool) "p q latched in different steps" false
    (conflict (scheduled Limits.serial) ~outputs:[ "y" ] "p" "q");
  Alcotest.(check bool) "p q latched in one step" true
    (conflict (scheduled (Limits.Total 2)) ~outputs:[ "y" ] "p" "q")

(* inside one block: q is written at step 1 while p, read at block
   entry, is still to be consumed at step 2 *)
let test_conflict_inside_block () =
  let _, cfg =
    Compile.compile_source
      "module m(input a: int<8>; output y: int<8>); var p, q: int<8>; begin p := a + 1; if a > 3 then q := a * 2; y := p * q; else y := p; end; end"
  in
  let cs = Gen.schedule_cfg (List_sched.schedule_dep ~limits:Limits.serial) cfg in
  Alcotest.(check bool) "p held while q latches" true (conflict cs ~outputs:[ "y" ] "p" "q")

(* ---- register allocation ---- *)

let test_reg_alloc_sqrt () =
  let cs = scheduled_sqrt () in
  let regs = Reg_alloc.run ~ports:[ "x"; "y" ] ~outputs:[ "y" ] cs in
  Alcotest.(check int) "one temp (division result)" 1 (Reg_alloc.n_temp_registers regs);
  (* x, y, i all interfere across the loop: three registers *)
  Alcotest.(check int) "variable registers" 3 (Reg_alloc.n_variable_registers regs);
  Alcotest.(check int) "total" 4 (Reg_alloc.n_registers regs)

let test_reg_alloc_shares_disjoint_vars () =
  let src =
    "module m(input a: int<8>; output y: int<8>); var p, q: int<8>; begin p := a + 1; y := p * 2; q := y + 3; y := q * 4; end"
  in
  let _, cfg = Compile.compile_source src in
  let cs = Gen.schedule_cfg (List_sched.schedule_dep ~limits:Limits.serial) cfg in
  let shared = Reg_alloc.run ~ports:[ "a"; "y" ] ~outputs:[ "y" ] cs in
  let unshared =
    Reg_alloc.run ~share_variables:false ~ports:[ "a"; "y" ] ~outputs:[ "y" ] cs
  in
  Alcotest.(check bool) "sharing saves a register" true
    (Reg_alloc.n_variable_registers shared < Reg_alloc.n_variable_registers unshared);
  (* p and q never live together: same physical register *)
  Alcotest.(check string) "p/q merged" (Reg_alloc.register_of_var shared "p")
    (Reg_alloc.register_of_var shared "q")

let test_reg_alloc_ports_never_merged () =
  let cs = scheduled_sqrt () in
  let regs = Reg_alloc.run ~ports:[ "x"; "y" ] ~outputs:[ "y" ] cs in
  List.iter
    (fun p -> Alcotest.(check string) "port keeps own register" p (Reg_alloc.register_of_var regs p))
    [ "x"; "y" ]

(* ---- interconnect ---- *)

let test_interconnect_sqrt () =
  let cs = scheduled_sqrt () in
  let fu = Fu_alloc.greedy cs in
  let regs = Reg_alloc.run ~ports:[ "x"; "y" ] ~outputs:[ "y" ] cs in
  let ts = Interconnect.transfers cs ~fu ~regs in
  Alcotest.(check bool) "has transfers" true (List.length ts > 0);
  let groups, buses = Interconnect.bus_allocation ts in
  Alcotest.(check bool) "buses do not exceed transfers" true (buses <= List.length ts);
  (* all groups pairwise compatible *)
  List.iter
    (fun group ->
      List.iter
        (fun (t1 : Interconnect.transfer) ->
          List.iter
            (fun (t2 : Interconnect.transfer) ->
              if t1 != t2 then
                Alcotest.(check bool) "bus slot conflict" true
                  ((t1.Interconnect.t_bid, t1.Interconnect.t_step)
                   <> (t2.Interconnect.t_bid, t2.Interconnect.t_step)
                  || t1.Interconnect.t_src = t2.Interconnect.t_src))
            group)
        group)
    groups;
  (* buses needed >= peak transfers in any single step *)
  let by_slot = Hashtbl.create 16 in
  List.iter
    (fun (t : Interconnect.transfer) ->
      let k = (t.Interconnect.t_bid, t.Interconnect.t_step) in
      let srcs = try Hashtbl.find by_slot k with Not_found -> [] in
      if not (List.mem t.Interconnect.t_src srcs) then
        Hashtbl.replace by_slot k (t.Interconnect.t_src :: srcs))
    ts;
  let peak = Hashtbl.fold (fun _ srcs acc -> max acc (List.length srcs)) by_slot 0 in
  Alcotest.(check bool) "buses >= peak concurrent sources" true (buses >= peak)

let test_mux_cost_positive_on_sharing () =
  let cs, _ = fig67_design () in
  let fu = Fu_alloc.by_clique cs in
  let regs = Reg_alloc.run ~ports:[] ~outputs:[ "o1"; "o2"; "o3" ] cs in
  let ts = Interconnect.transfers cs ~fu ~regs in
  Alcotest.(check bool) "sharing forces muxes" true (Interconnect.mux_cost ts > 0)

(* Interconnect oracle: every read is resolved on its own, from a fresh
   lifetime analysis of its block. A computed value is its unit's output
   in its producing step and its storage's register afterwards; an entry
   read leaves its variable's register only after the step in which an
   overwrite moves it to a temporary; temporary track k is tmpk. *)
let transfers_oracle cs ~fu ~regs =
  let open Interconnect in
  let cfg = Cfg_sched.cfg cs in
  let reg v = W_reg (Reg_alloc.register_of_var regs v) in
  List.concat_map
    (fun bid ->
      let g = Cfg.dfg cfg bid in
      let sched = Cfg_sched.block_schedule cs bid in
      let infos =
        Lifetime.analyze sched ~term_cond:(Lifetime.branch_condition cfg bid)
      in
      let tmp nid =
        match Reg_alloc.temp_track regs bid nid with
        | Some k -> Printf.sprintf "tmp%d" k
        | None -> Alcotest.failf "b%d.%%%d has no temporary" bid nid
      in
      let unit nid = Fu_alloc.of_op fu (bid, nid) in
      let source nid step =
        let storage =
          match List.find_opt (fun (i : Lifetime.value_info) -> i.Lifetime.nid = nid) infos with
          | Some i -> i.Lifetime.storage
          | None -> Lifetime.No_storage
        in
        match (Dfg.op g nid, storage) with
        | Op.Const c, _ -> W_const c
        | Op.Read _, Lifetime.Temp iv when step > iv.Interval.lo -> W_reg (tmp nid)
        | Op.Read v, _ -> reg v
        | _ when not (Dfg.occupies_step g nid) -> W_wire (bid, nid)
        | _ when Schedule.step_of sched nid = step -> W_fu_out (unit nid)
        | _, Lifetime.In_variable v -> reg v
        | _, Lifetime.Temp _ -> W_reg (tmp nid)
        | _, Lifetime.No_storage -> Alcotest.failf "b%d.%%%d read at %d unstored" bid nid step
      in
      let at step nid t_dst = { t_src = source nid step; t_dst; t_bid = bid; t_step = step } in
      let fu_inputs =
        List.concat_map
          (fun nid ->
            let step = Schedule.step_of sched nid in
            List.mapi (fun pos a -> at step a (D_fu_in (unit nid, pos))) (Dfg.args g nid))
          (Dfg.compute_ops g)
      in
      let latches =
        List.map
          (fun (v, wnid) ->
            at (Schedule.write_step sched wnid) (List.hd (Dfg.args g wnid))
              (D_reg (Reg_alloc.register_of_var regs v)))
          (Dfg.writes g)
      in
      let temps =
        List.map (fun (nid, iv) -> at iv.Interval.lo nid (D_reg (tmp nid))) (Lifetime.temps infos)
      in
      fu_inputs @ latches @ temps)
    (Cfg.block_ids cfg)

(* Extra mux inputs of a built datapath: per destination port, its
   distinct physical nets less one. A unit's output is one net at any
   type it is read at, a constant one net per value. *)
let datapath_mux_inputs (dp : Hls_rtl.Datapath.t) =
  let open Hls_rtl in
  let nets = Hashtbl.create 32 in
  let note dst w =
    let net =
      match w with
      | Wire.W_fu_out (u, _) -> `Fu u
      | Wire.W_const (c, _) -> `Const c
      | w -> `Wire w
    in
    let have = Option.value ~default:[] (Hashtbl.find_opt nets dst) in
    if not (List.mem net have) then Hashtbl.replace nets dst (net :: have)
  in
  List.iter
    (fun (a : Datapath.activity) ->
      List.iteri (fun pos w -> note (`Port (a.Datapath.a_fu, pos)) w) a.Datapath.a_args)
    dp.Datapath.activities;
  List.iter (fun (l : Datapath.load) -> note (`Reg l.Datapath.l_reg) l.Datapath.l_wire) dp.Datapath.loads;
  Hashtbl.fold (fun _ ns acc -> acc + List.length ns - 1) nets 0

let check_one_wiring tag (d : Hls_core.Flow.design) =
  let counted = Interconnect.mux_cost d.Hls_core.Flow.transfers
  and built = datapath_mux_inputs d.Hls_core.Flow.datapath in
  if counted <> built then
    Alcotest.failf "%s: interconnect mux cost %d, datapath mux inputs %d" tag counted built

(* Every workload x default sweep point x allocator (x narrowing x
   if-conversion), through the DSE engine the way a sweep builds
   designs; biquad3's flat block is past what branch-and-bound and 0/1
   programming finish on, so it gets the polynomial schedulers. *)
let iter_workload_cross ?(narrow = [ false ]) ?(if_conversion = [ false ]) f =
  let open Hls_core in
  let polynomial = [ Flow.Asap; Flow.List_path; Flow.Freedom; Flow.Trans_serial ] in
  List.iter
    (fun (name, src) ->
      let engine = Dse.create src in
      let schedulers = if name = "biquad3" then polynomial else Explore.default_schedulers in
      List.iter
        (fun if_conversion ->
          List.iter
            (fun narrow ->
              List.iter
                (fun (label, opts) ->
                  List.iter
                    (fun allocator ->
                      let opts = { opts with Flow.allocator; narrow; if_conversion } in
                      let tag =
                        Printf.sprintf "%s %s %s%s%s" name label
                          (Flow.Knob.text Flow.Knob.allocator allocator)
                          (if narrow then " narrow" else "")
                          (if if_conversion then " if-convert" else "")
                      in
                      match Dse.eval_result engine opts with
                      | Error _ -> Alcotest.failf "%s: design failed its checks" tag
                      | Ok d -> f tag d)
                    (Flow.Knob.values Flow.Knob.allocator))
                (Explore.cross ~base:Flow.default_options ~schedulers
                   ~limits:Explore.default_limits ()))
            narrow)
        if_conversion)
    Workloads.all

let test_interconnect_matches_oracle () =
  iter_workload_cross (fun tag d ->
      let open Hls_core in
      let expected = transfers_oracle d.Flow.sched ~fu:d.Flow.fu ~regs:d.Flow.regs in
      if d.Flow.transfers <> expected then
        Alcotest.failf "%s: transfers differ from the per-operand oracle" tag)

let test_mux_cost_is_the_datapaths () =
  iter_workload_cross ~narrow:[ false; true ] ~if_conversion:[ false; true ] check_one_wiring

let prop_mux_cost_is_the_datapaths =
  QCheck.Test.make ~name:"random programs: interconnect mux cost is the datapath's" ~count:60
    Gen.program_arbitrary (fun seed ->
      match Hls_core.Flow.synthesize_program_result (Gen.program_of_seed seed) with
      | Error _ -> QCheck.Test.fail_report "synthesis failed"
      | Ok d ->
          check_one_wiring (Printf.sprintf "seed %d" seed) d;
          true)

let test_entry_read_stays_in_its_register () =
  (* diffeq under ASAP on one unit: an entry read of u is consumed in the
     step an overwrite of u moves it to a temporary, so fu1's second
     operand is still read from u's register then *)
  let open Hls_core in
  let options =
    { Flow.default_options with Flow.scheduler = Flow.Asap; limits = Limits.serial }
  in
  let d = Flow.synthesize ~options Workloads.diffeq in
  let sources =
    List.filter_map
      (fun (t : Interconnect.transfer) ->
        if t.Interconnect.t_dst = Interconnect.D_fu_in (1, 1) then
          Some (Interconnect.wire_to_string t.Interconnect.t_src)
        else None)
      d.Flow.transfers
  in
  Alcotest.(check bool)
    (Printf.sprintf "fu1.1 reads {%s}" (String.concat ", " sources))
    true (List.mem "u" sources)

(* An N-tap straight-line FIR: one block of N constant multiplications
   and N - 1 additions. *)
let fir_source taps =
  let xs = List.init taps (Printf.sprintf "x%d") in
  let terms = List.mapi (fun i x -> Printf.sprintf "0.%04d * %s" (1013 + (37 * i)) x) xs in
  Printf.sprintf
    "module fir%d(input %s: fix<8,24>; output y: fix<8,24>);\nbegin\n  y := %s;\nend\n" taps
    (String.concat ", " xs) (String.concat " + " terms)

let test_interconnect_scales_linearly () =
  (* minor words are deterministic where wall time is not: doubling the
     taps must not quadruple the allocation (a storage table rebuilt per
     operand did, about 3.9x from 50 to 100 taps) *)
  let open Hls_core in
  let words taps =
    let o =
      Flow.midend ~passes:Flow.default_options.Flow.passes ~if_conversion:false
        (Flow.frontend (fir_source taps))
    in
    let cs = Flow.schedule Flow.default_options o in
    let fu = Fu_alloc.greedy cs in
    let regs =
      Reg_alloc.run ~ports:("y" :: List.init taps (Printf.sprintf "x%d"))
        ~outputs:o.Flow.o_outputs cs
    in
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Interconnect.transfers cs ~fu ~regs));
    Gc.minor_words () -. before
  in
  let w50 = words 50 and w100 = words 100 in
  Alcotest.(check bool)
    (Printf.sprintf "FIR-100 allocates %.0f words, FIR-50 %.0f: ratio %.2f < 3" w100 w50
       (w100 /. w50))
    true
    (w100 < 3. *. w50)

(* ---- 0/1 programming allocation (Hafer) ---- *)

let test_ilp_alloc_fig67 () =
  let cs, _ = fig67_design () in
  match Ilp_alloc.allocate cs with
  | None -> Alcotest.fail "small enough"
  | Some alloc ->
      (* optimum matches the clique result: two adders *)
      Alcotest.(check int) "two adders" 2 (Fu_alloc.n_units alloc);
      (* every op bound to exactly one unit; no slot conflicts *)
      List.iter
        (fun (inst : Fu_alloc.instance) ->
          let slots =
            List.map
              (fun (r : Fu_alloc.op_ref) -> (r.Fu_alloc.bid, r.Fu_alloc.step))
              inst.Fu_alloc.ops
          in
          Alcotest.(check int) "no conflicts" (List.length slots)
            (List.length (List.sort_uniq compare slots)))
        alloc.Fu_alloc.instances

let test_ilp_alloc_never_worse_than_clique () =
  List.iter
    (fun name ->
      let d = Hls_core.Flow.synthesize (Hls_core.Workloads.find name) in
      match Ilp_alloc.min_units d.Hls_core.Flow.sched with
      | None -> () (* too large; fine *)
      | Some opt ->
          let clique = Fu_alloc.n_units (Fu_alloc.by_clique d.Hls_core.Flow.sched) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: ILP %d <= clique %d" name opt clique)
            true (opt <= clique))
    [ "sqrt"; "gcd" ]

let () =
  Alcotest.run "alloc"
    [
      ( "left_edge",
        [
          Alcotest.test_case "basic reuse" `Quick test_left_edge_basic;
          QCheck_alcotest.to_alcotest prop_left_edge_optimal;
          QCheck_alcotest.to_alcotest prop_left_edge_no_conflicts;
        ] );
      ( "clique",
        [
          Alcotest.test_case "small" `Quick test_clique_small;
          QCheck_alcotest.to_alcotest prop_clique_valid;
          QCheck_alcotest.to_alcotest prop_clique_matches_reference;
        ] );
      ( "figures",
        [
          Alcotest.test_case "Fig 7: two adders by clique" `Quick test_fig7_clique_two_adders;
          Alcotest.test_case "Fig 6: min-mux beats first-fit" `Quick test_fig6_greedy_cost_aware;
          Alcotest.test_case "no double booking" `Quick test_greedy_never_double_books;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "sqrt body" `Quick test_lifetime_sqrt_body;
          Alcotest.test_case "temp for long value" `Quick test_lifetime_needs_temp;
          Alcotest.test_case "overwritten read" `Quick test_lifetime_read_overwritten;
          Alcotest.test_case "x y conflict across the loop" `Quick test_conflict_sqrt;
          Alcotest.test_case "p q occupancy in one block" `Quick test_conflict_one_block;
          Alcotest.test_case "entry read outlives a write" `Quick test_conflict_inside_block;
        ] );
      ( "registers",
        [
          Alcotest.test_case "sqrt registers" `Quick test_reg_alloc_sqrt;
          Alcotest.test_case "disjoint variables share" `Quick test_reg_alloc_shares_disjoint_vars;
          Alcotest.test_case "ports never merged" `Quick test_reg_alloc_ports_never_merged;
        ] );
      ( "interconnect",
        [
          Alcotest.test_case "sqrt transfers/buses" `Quick test_interconnect_sqrt;
          Alcotest.test_case "mux cost on sharing" `Quick test_mux_cost_positive_on_sharing;
          Alcotest.test_case "matches the per-operand oracle" `Quick
            test_interconnect_matches_oracle;
          Alcotest.test_case "mux cost is the datapath's" `Quick test_mux_cost_is_the_datapaths;
          QCheck_alcotest.to_alcotest prop_mux_cost_is_the_datapaths;
          Alcotest.test_case "entry read stays in its register" `Quick
            test_entry_read_stays_in_its_register;
          Alcotest.test_case "linear allocation on FIR" `Quick test_interconnect_scales_linearly;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "Fig 6/7 optimum" `Quick test_ilp_alloc_fig67;
          Alcotest.test_case "never worse than clique" `Quick test_ilp_alloc_never_worse_than_clique;
        ] );
    ]
