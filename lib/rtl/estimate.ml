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
let same_net (a : Wire.t) (b : Wire.t) =
  match (a, b) with
  | Wire.W_fu_out (u, _), Wire.W_fu_out (v, _) -> u = v
  | Wire.W_const (c, _), Wire.W_const (d, _) -> c = d
  | Wire.W_reg x, Wire.W_reg y -> String.equal x y
  | (Wire.W_fu_out _ | Wire.W_const _ | Wire.W_reg _), _
  | _, (Wire.W_fu_out _ | Wire.W_const _ | Wire.W_reg _) ->
      false
  | _ -> a = b

let unit_of (dp : Datapath.t) id =
  if id >= 0 && id < Array.length dp.Datapath.fus then dp.Datapath.fus.(id)
  else invalid_arg (Printf.sprintf "Estimate: activity references undefined fu%d" id)

let mux_area_of (dp : Datapath.t) =
  let regs = dp.Datapath.regs in
  let reg_position name =
    match Datapath.register_index regs name with
    | -1 -> invalid_arg (Printf.sprintf "Estimate: load targets undefined register %S" name)
    | i -> i
  in
  let arity =
    Array.fold_left
      (Array.fold_left (fun acc (a : Datapath.activity) ->
           Int.max acc (List.length a.Datapath.a_args)))
      0 dp.Datapath.acts
  in
  (* distinct nets per unit input port ([fuid * arity + pos]) and per
     register input *)
  let port_nets = Array.make (Array.length dp.Datapath.fus * arity) [] in
  let reg_nets = Array.make (Array.length regs) [] in
  let note nets i w =
    if not (List.exists (same_net w) nets.(i)) then nets.(i) <- w :: nets.(i)
  in
  Array.iter
    (Array.iter (fun (a : Datapath.activity) ->
         let u = a.Datapath.a_fu in
         ignore (unit_of dp u);
         List.iteri (fun pos w -> note port_nets ((u * arity) + pos) w) a.Datapath.a_args))
    dp.Datapath.acts;
  Array.iter
    (Array.iter (fun (l : Datapath.load) ->
         note reg_nets (reg_position l.Datapath.l_reg) l.Datapath.l_wire))
    dp.Datapath.loads;
  let area = ref 0 in
  Array.iteri
    (fun i nets ->
      if nets <> [] then
        area :=
          !area
          + Component.mux_area ~inputs:(List.length nets)
              ~width:dp.Datapath.fus.(i / arity).Datapath.fwidth)
    port_nets;
  Array.iteri
    (fun i nets ->
      area := !area + Component.mux_area ~inputs:(List.length nets) ~width:regs.(i).Datapath.rwidth)
    reg_nets;
  !area

let cycle_time (dp : Datapath.t) =
  (* worst state: register read + input mux + FU + output wiring + setup *)
  let worst = ref Component.register_delay_ns in
  Array.iter
    (Array.iter (fun (a : Datapath.activity) ->
         let input_delay =
           List.fold_left (fun acc w -> Float.max acc (Wire.depth_delay_ns w)) 0.0 a.Datapath.a_args
         in
         let f = unit_of dp a.Datapath.a_fu in
         let d =
           Component.register_delay_ns +. Component.mux_delay_ns +. input_delay
           +. f.Datapath.comp.Component.delay_ns
         in
         if d > !worst then worst := d))
    dp.Datapath.acts;
  Array.iter
    (Array.iter (fun (l : Datapath.load) ->
         let d =
           Component.register_delay_ns +. Component.mux_delay_ns
           +. Wire.depth_delay_ns l.Datapath.l_wire
         in
         if d > !worst then worst := d))
    dp.Datapath.loads;
  !worst

let estimate ?(style = Hls_ctrl.Encoding.Binary) ?ctrl (dp : Datapath.t) cs =
  let fu_area =
    Array.fold_left
      (fun acc (f : Datapath.fu_def) ->
        acc + Component.area f.Datapath.comp ~width:f.Datapath.fwidth)
      0 dp.Datapath.fus
  in
  let reg_area =
    Array.fold_left
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
