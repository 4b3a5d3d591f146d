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

let diagnostics (dp : Datapath.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let regs = dp.Datapath.regs and fus = dp.Datapath.fus in
  let reg_exists name = Datapath.register_index regs name >= 0 in
  (* the diagnostic context is formatted only for a wire that fails *)
  let missing_regs entity ctx w =
    List.iter
      (fun r ->
        if not (reg_exists r) then
          add (error Rtl ~code:"RTL001" entity "%s reads missing register %s" (ctx ()) r))
      (Wire.regs_read w)
  in
  let no_unit _ = false in
  (* per-state flags, cleared state by state: units activated, registers
     loaded (a load into a missing register is keyed by its name) *)
  let active = Array.make (Array.length fus) false in
  let is_active u = u >= 0 && u < Array.length active && active.(u) in
  let loaded = Array.make (Array.length regs) false in
  (* any FU outputs a wire consumes must be active in its state *)
  let idle_units entity ctx w =
    if not (Wire.for_all_fus is_active w) then
      List.iter
        (fun u -> if not (is_active u) then add (error Rtl ~code:"RTL007" entity "%s" (ctx u)))
        (Wire.fus_read w)
  in
  for state = 0 to Hls_ctrl.Fsm.n_states dp.Datapath.fsm - 1 do
    Array.fill active 0 (Array.length active) false;
    Array.fill loaded 0 (Array.length loaded) false;
    (* activations *)
    Array.iter
      (fun (a : Datapath.activity) ->
        let u = a.Datapath.a_fu in
        if is_active u then
          add
            (error Rtl ~code:"RTL002" (Fu u) "functional unit %d double-booked in state %d" u
               state);
        if u < 0 || u >= Array.length fus then
          add (error Rtl ~code:"RTL009" (State state) "activation references missing unit %d" u)
        else begin
          active.(u) <- true;
          let f = fus.(u) in
          if not (Component.executes f.Datapath.comp a.Datapath.a_op) then
            add
              (error Rtl ~code:"RTL003" (Fu u) "unit %d (%s) cannot execute %s" u
                 f.Datapath.comp.Component.cname
                 (Hls_cdfg.Op.to_string a.Datapath.a_op))
        end;
        List.iter
          (fun w ->
            if not (Wire.for_all_regs reg_exists w) then
              missing_regs (Fu u) (fun () -> Printf.sprintf "fu%d input" u) w;
            (* FU inputs must not depend on same-state FU outputs *)
            if not (Wire.for_all_fus no_unit w) then
              add
                (error Rtl ~code:"RTL004" (Fu u)
                   "unit %d input chains another unit's output in state %d (unsupported chaining)"
                   u state))
          a.Datapath.a_args)
      dp.Datapath.acts.(state);
    (* loads *)
    let seen_missing = ref [] in
    Array.iter
      (fun (l : Datapath.load) ->
        let reg = l.Datapath.l_reg in
        let r = Datapath.register_index regs reg in
        let seen = if r >= 0 then loaded.(r) else List.mem reg !seen_missing in
        if seen then
          add
            (error Rtl ~code:"RTL005" (Register reg) "register %s double-driven in state %d" reg
               state)
        else if r >= 0 then loaded.(r) <- true
        else seen_missing := reg :: !seen_missing;
        if r < 0 then
          add (error Rtl ~code:"RTL006" (Register reg) "load into missing register %s" reg);
        if not (Wire.for_all_regs reg_exists l.Datapath.l_wire) then
          missing_regs (Register reg) (fun () -> Printf.sprintf "load of %s" reg) l.Datapath.l_wire;
        idle_units (Register reg)
          (fun u -> Printf.sprintf "load of %s in state %d consumes idle unit %d" reg state u)
          l.Datapath.l_wire)
      dp.Datapath.loads.(state);
    (* the branch condition *)
    Option.iter
      (fun w ->
        if not (Wire.for_all_regs reg_exists w) then
          missing_regs (State state) (fun () -> Printf.sprintf "condition of state %d" state) w;
        idle_units (State state)
          (fun u -> Printf.sprintf "condition of state %d consumes idle unit %d" state u)
          w)
      dp.Datapath.conds.(state)
  done;
  List.iter
    (fun (tr : Hls_ctrl.Fsm.transition) ->
      match tr.Hls_ctrl.Fsm.t_guard with
      | Hls_ctrl.Fsm.G_cond _ ->
          let s = tr.Hls_ctrl.Fsm.t_from in
          if dp.Datapath.conds.(s) = None then
            add
              (error Rtl ~code:"RTL008" (State s) "state %d branches without a condition wire" s)
      | Hls_ctrl.Fsm.G_always -> ())
    (Hls_ctrl.Fsm.transitions dp.Datapath.fsm);
  List.rev !ds

let run dp = match diagnostics dp with [] -> Ok () | ds -> Error ds
