type t = {
  fu_area : int;
  reg_area : int;
  mux_area : int;
  ctrl_area : int;
  total_area : int;
  cycle_ns : float;
  compute_steps : int;
  latency_ns : float;
}

(* Distinct physical nets per destination → mux sizes. A net is what
   [Hls_alloc.Interconnect.resolve] names: a unit's output is one net at
   whatever type an operation reads it, a constant one net per value,
   a register one net; a free chain is its own logic. So the extra
   inputs priced here are [Interconnect.mux_cost] of the design's
   transfers. Every mux input is as wide as the destination it feeds:
   the functional unit's bound width for operand ports, the register's
   width for load ports. Unknown destinations are datapath construction
   bugs, not 16-bit guesses. *)
let net (w : Wire.t) =
  match w with Wire.W_fu_out (u, _) -> `Fu u | Wire.W_const (c, _) -> `Const c | w -> `Wire w

let mux_area_of (dp : Datapath.t) =
  let by_dest = Hashtbl.create 32 in
  let note key width wire =
    let have =
      match Hashtbl.find_opt by_dest key with Some (_, ns) -> ns | None -> []
    in
    let n = net wire in
    if not (List.mem n have) then Hashtbl.replace by_dest key (width, n :: have)
  in
  let fu_width id =
    match List.find_opt (fun (f : Datapath.fu_def) -> f.Datapath.fuid = id) dp.Datapath.fus
    with
    | Some f -> f.Datapath.fwidth
    | None ->
        invalid_arg (Printf.sprintf "Estimate: activity references undefined fu%d" id)
  in
  let reg_w name =
    match Datapath.reg_width dp name with
    | w -> w
    | exception Not_found ->
        invalid_arg (Printf.sprintf "Estimate: load targets undefined register %S" name)
  in
  List.iter
    (fun (a : Datapath.activity) ->
      let width = fu_width a.Datapath.a_fu in
      List.iteri
        (fun pos w -> note (Hls_alloc.Interconnect.D_fu_in (a.Datapath.a_fu, pos)) width w)
        a.Datapath.a_args)
    dp.Datapath.activities;
  List.iter
    (fun (l : Datapath.load) ->
      note (Hls_alloc.Interconnect.D_reg l.Datapath.l_reg) (reg_w l.Datapath.l_reg)
        l.Datapath.l_wire)
    dp.Datapath.loads;
  Hashtbl.fold
    (fun _ (width, nets) acc ->
      acc + Component.mux_area ~inputs:(List.length nets) ~width)
    by_dest 0

let cycle_time (dp : Datapath.t) =
  (* worst state: register read + input mux + FU + output wiring + setup *)
  let worst = ref Component.register_delay_ns in
  List.iter
    (fun (a : Datapath.activity) ->
      let input_delay =
        List.fold_left (fun acc w -> max acc (Wire.depth_delay_ns w)) 0.0 a.Datapath.a_args
      in
      let f = Datapath.fu_of dp a.Datapath.a_fu in
      let d =
        Component.register_delay_ns +. Component.mux_delay_ns +. input_delay
        +. f.Datapath.comp.Component.delay_ns
      in
      if d > !worst then worst := d)
    dp.Datapath.activities;
  List.iter
    (fun (l : Datapath.load) ->
      let d =
        Component.register_delay_ns +. Component.mux_delay_ns
        +. Wire.depth_delay_ns l.Datapath.l_wire
      in
      if d > !worst then worst := d)
    dp.Datapath.loads;
  !worst

let estimate ?(style = Hls_ctrl.Encoding.Binary) ?ctrl (dp : Datapath.t) cs =
  let fu_area =
    List.fold_left
      (fun acc (f : Datapath.fu_def) ->
        acc + Component.area f.Datapath.comp ~width:f.Datapath.fwidth)
      0 dp.Datapath.fus
  in
  let reg_area =
    List.fold_left
      (fun acc (r : Datapath.reg_def) -> acc + Component.register_area ~width:r.Datapath.rwidth)
      0 dp.Datapath.regs
  in
  let mux_area = mux_area_of dp in
  let ctrl =
    match ctrl with
    | Some c -> c
    | None -> Hls_ctrl.Ctrl_synth.synthesize ~style dp.Datapath.fsm
  in
  let ctrl_area =
    (2 * Hls_ctrl.Ctrl_synth.literal_cost ctrl)
    + Component.register_area ~width:(Hls_ctrl.Ctrl_synth.n_state_bits ctrl)
  in
  let cycle_ns = cycle_time dp in
  let compute_steps = Hls_sched.Cfg_sched.compute_steps cs in
  {
    fu_area;
    reg_area;
    mux_area;
    ctrl_area;
    total_area = fu_area + reg_area + mux_area + ctrl_area;
    cycle_ns;
    compute_steps;
    latency_ns = cycle_ns *. float_of_int compute_steps;
  }

let pp ppf t =
  Format.fprintf ppf
    "area %d gates (FU %d, reg %d, mux %d, ctrl %d); cycle %.1f ns; %d steps; latency %.0f ns@."
    t.total_area t.fu_area t.reg_area t.mux_area t.ctrl_area t.cycle_ns t.compute_steps
    t.latency_ns

let to_row t =
  [
    string_of_int t.total_area;
    Printf.sprintf "%.1f" t.cycle_ns;
    string_of_int t.compute_steps;
    Printf.sprintf "%.0f" t.latency_ns;
  ]
