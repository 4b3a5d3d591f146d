open Hls_analysis.Diagnostic

let rules =
  [
    ("RTL001", "wire reads a register that does not exist");
    ("RTL002", "functional unit activated twice in one state");
    ("RTL003", "bound component cannot execute an activation's operation");
    ("RTL004", "unit input chains another unit's output in the same state");
    ("RTL005", "register driven by two loads in one state");
    ("RTL006", "load targets a register that does not exist");
    ("RTL007", "wire consumes the output of an idle unit");
    ("RTL008", "state branches without a condition wire");
    ("RTL009", "activation references a unit that does not exist");
  ]

(* A dense [rows x cols] flag matrix; indices outside it read unset. *)
let flags rows cols = (Bytes.make (Int.max 0 (rows * cols)) '\000', cols)
let inside (b, cols) i j = i >= 0 && j >= 0 && j < cols && (i * cols) + j < Bytes.length b
let mem ((b, cols) as m) i j = inside m i j && Bytes.get b ((i * cols) + j) <> '\000'
let set ((b, cols) as m) i j = if inside m i j then Bytes.set b ((i * cols) + j) '\001'

let diagnostics (dp : Datapath.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let regs = Datapath.registers dp in
  let reg_index = Datapath.register_index regs in
  let reg_exists name = reg_index name >= 0 in
  (* the diagnostic context is formatted only for a wire that fails *)
  let missing_regs entity ctx w =
    List.iter
      (fun r ->
        if not (reg_exists r) then
          add (error Rtl ~code:"RTL001" entity "%s reads missing register %s" (ctx ()) r))
      (Wire.regs_read w)
  in
  (* states and unit ids are dense, so (unit, state) facts are flag
     matrices *)
  let units = Datapath.units dp in
  let n_fus = Array.length units in
  let n_states =
    List.fold_left
      (fun acc (l : Datapath.load) -> Int.max acc (l.Datapath.l_state + 1))
      (List.fold_left
         (fun acc (a : Datapath.activity) -> Int.max acc (a.Datapath.a_state + 1))
         (Hls_ctrl.Fsm.n_states dp.Datapath.fsm) dp.Datapath.activities)
      dp.Datapath.loads
  in
  let n_units =
    List.fold_left
      (fun acc (a : Datapath.activity) -> Int.max acc (a.Datapath.a_fu + 1))
      n_fus dp.Datapath.activities
  in
  let active = flags n_units n_states in
  List.iter
    (fun (a : Datapath.activity) -> set active a.Datapath.a_fu a.Datapath.a_state)
    dp.Datapath.activities;
  let no_unit _ = false in
  (* activations *)
  let seen_fu_state = flags n_units n_states in
  List.iter
    (fun (a : Datapath.activity) ->
      if mem seen_fu_state a.Datapath.a_fu a.Datapath.a_state then
        add
          (error Rtl ~code:"RTL002" (Fu a.Datapath.a_fu)
             "functional unit %d double-booked in state %d" a.Datapath.a_fu
             a.Datapath.a_state)
      else set seen_fu_state a.Datapath.a_fu a.Datapath.a_state;
      (match if a.Datapath.a_fu >= 0 && a.Datapath.a_fu < n_fus then units.(a.Datapath.a_fu) else None with
      | None ->
          add
            (error Rtl ~code:"RTL009" (State a.Datapath.a_state)
               "activation references missing unit %d" a.Datapath.a_fu)
      | Some f ->
          if not (Component.executes f.Datapath.comp a.Datapath.a_op) then
            add
              (error Rtl ~code:"RTL003" (Fu f.Datapath.fuid) "unit %d (%s) cannot execute %s"
                 f.Datapath.fuid f.Datapath.comp.Component.cname
                 (Hls_cdfg.Op.to_string a.Datapath.a_op)));
      let rec check_args = function
        | [] -> ()
        | w :: rest ->
            if not (Wire.for_all_regs reg_exists w) then
              missing_regs (Fu a.Datapath.a_fu)
                (fun () -> Printf.sprintf "fu%d input" a.Datapath.a_fu)
                w;
            check_args rest
      in
      check_args a.Datapath.a_args;
      (* FU inputs must not depend on same-state FU outputs *)
      let rec check_chaining = function
        | [] -> ()
        | w :: rest ->
            if not (Wire.for_all_fus no_unit w) then
              add
                (error Rtl ~code:"RTL004" (Fu a.Datapath.a_fu)
                   "unit %d input chains another unit's output in state %d (unsupported chaining)"
                   a.Datapath.a_fu a.Datapath.a_state);
            check_chaining rest
      in
      check_chaining a.Datapath.a_args)
    dp.Datapath.activities;
  (* any FU outputs a wire consumes must be active in its state *)
  let idle_units entity ctx state w =
    List.iter
      (fun u -> if not (mem active u state) then add (error Rtl ~code:"RTL007" entity "%s" (ctx u)))
      (Wire.fus_read w)
  in
  (* loads; a load into a missing register is keyed by its name *)
  let seen_reg_state = flags (Array.length regs) n_states in
  let seen_missing = ref [] in
  List.iter
    (fun (l : Datapath.load) ->
      let r = reg_index l.Datapath.l_reg in
      let seen =
        if r >= 0 then mem seen_reg_state r l.Datapath.l_state
        else List.mem (l.Datapath.l_reg, l.Datapath.l_state) !seen_missing
      in
      if seen then
        add
          (error Rtl ~code:"RTL005" (Register l.Datapath.l_reg)
             "register %s double-driven in state %d" l.Datapath.l_reg l.Datapath.l_state)
      else if r >= 0 then set seen_reg_state r l.Datapath.l_state
      else seen_missing := (l.Datapath.l_reg, l.Datapath.l_state) :: !seen_missing;
      if r < 0 then
        add
          (error Rtl ~code:"RTL006" (Register l.Datapath.l_reg)
             "load into missing register %s" l.Datapath.l_reg);
      if not (Wire.for_all_regs reg_exists l.Datapath.l_wire) then
        missing_regs (Register l.Datapath.l_reg)
          (fun () -> Printf.sprintf "load of %s" l.Datapath.l_reg)
          l.Datapath.l_wire;
      let state = l.Datapath.l_state in
      if not (Wire.for_all_fus (fun u -> mem active u state) l.Datapath.l_wire) then
        idle_units (Register l.Datapath.l_reg)
          (fun u ->
            Printf.sprintf "load of %s in state %d consumes idle unit %d" l.Datapath.l_reg state u)
          state l.Datapath.l_wire)
    dp.Datapath.loads;
  (* branch conditions: the first condition wire of a state is its own *)
  let n_cond_states = List.fold_left (fun acc (s, _) -> Int.max acc (s + 1)) n_states dp.Datapath.conds in
  let has_cond = Array.make n_cond_states false in
  List.iter (fun (s, _) -> if s >= 0 then has_cond.(s) <- true) dp.Datapath.conds;
  List.iter
    (fun (tr : Hls_ctrl.Fsm.transition) ->
      match tr.Hls_ctrl.Fsm.t_guard with
      | Hls_ctrl.Fsm.G_cond _ ->
          let s = tr.Hls_ctrl.Fsm.t_from in
          if not (s >= 0 && s < n_cond_states && has_cond.(s)) then
            add
              (error Rtl ~code:"RTL008" (State tr.Hls_ctrl.Fsm.t_from)
                 "state %d branches without a condition wire" tr.Hls_ctrl.Fsm.t_from)
      | Hls_ctrl.Fsm.G_always -> ())
    (Hls_ctrl.Fsm.transitions dp.Datapath.fsm);
  List.iter
    (fun (state, w) ->
      if not (Wire.for_all_regs reg_exists w) then
        missing_regs (State state) (fun () -> Printf.sprintf "condition of state %d" state) w;
      if not (Wire.for_all_fus (fun u -> mem active u state) w) then
        idle_units (State state)
          (fun u -> Printf.sprintf "condition of state %d consumes idle unit %d" state u)
          state w)
    dp.Datapath.conds;
  List.rev !ds

let run dp = match diagnostics dp with [] -> Ok () | ds -> Error ds
