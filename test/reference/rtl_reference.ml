(* Oracle for Hls_sim.Rtl_sim: the seed interpreter. Per cycle it
   filters the whole design for the current state's activations and
   loads, walks wire trees through the generic [Wire.eval], dispatches
   operators through [Op.eval], and (in gate-level mode) re-derives the
   branch-condition key from the raw transition list. It produces
   exactly the same finals, cycle count and [on_cycle] observations as
   the compiled simulator; the differential tests in test_sim.ml and the
   rtl_sim kernel of the bench driver compare the two. *)

open Hls_rtl

let run ?(fuel = 1_000_000) ?(gate_level_control = false)
    ?(encoding = Hls_ctrl.Encoding.Binary) ?on_cycle (dp : Datapath.t) ~inputs =
  let regs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (r : Datapath.reg_def) -> Hashtbl.replace regs r.Datapath.rname 0) dp.Datapath.regs;
  List.iter
    (fun (name, raw) ->
      if Hashtbl.mem regs name then Hashtbl.replace regs name raw
      else raise (Hls_sim.Rtl_sim.Sim_error (Printf.sprintf "no input register %s" name)))
    inputs;
  let fsm = dp.Datapath.fsm in
  let ctrl =
    if gate_level_control then Some (Hls_ctrl.Ctrl_synth.synthesize ~style:encoding fsm)
    else None
  in
  let state = ref (Hls_ctrl.Fsm.entry fsm) in
  let cycles = ref 0 in
  let reg_read name =
    match Hashtbl.find_opt regs name with
    | Some x -> x
    | None -> raise (Hls_sim.Rtl_sim.Sim_error (Printf.sprintf "read of missing register %s" name))
  in
  while !state <> Hls_ctrl.Fsm.done_state fsm do
    incr cycles;
    if !cycles > fuel then raise (Hls_sim.Rtl_sim.Sim_error "out of fuel (controller may be stuck)");
    let s = !state in
    (* combinational phase: functional units *)
    let fu_out : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let fu_read u =
      match Hashtbl.find_opt fu_out u with
      | Some x -> x
      | None -> raise (Hls_sim.Rtl_sim.Sim_error (Printf.sprintf "combinational use of idle unit %d" u))
    in
    List.iter
      (fun (a : Datapath.activity) ->
        let argv = List.map (fun w -> Wire.eval w ~reg:reg_read ~fu:fu_read) a.Datapath.a_args in
        let v =
          try Hls_cdfg.Op.eval a.Datapath.a_ty a.Datapath.a_op argv
          with Division_by_zero -> raise (Hls_sim.Rtl_sim.Sim_error "division by zero")
        in
        Hashtbl.replace fu_out a.Datapath.a_fu v)
      (Datapath.activities_in dp s);
    (* register loads evaluate against pre-edge register values *)
    let pending =
      List.map
        (fun (l : Datapath.load) ->
          (l.Datapath.l_reg, Wire.eval l.Datapath.l_wire ~reg:reg_read ~fu:fu_read))
        (Datapath.loads_in dp s)
    in
    (* branch decision *)
    let cond_value =
      match Datapath.cond_wire dp s with
      | Some w -> Some (Wire.eval w ~reg:reg_read ~fu:fu_read <> 0)
      | None -> None
    in
    let next =
      match ctrl with
      | Some c ->
          let conds =
            match (cond_value, Datapath.cond_wire dp s) with
            | Some v, Some _ -> (
                (* recover the (block, nid) key for this state's condition *)
                match
                  List.find_opt
                    (fun (tr : Hls_ctrl.Fsm.transition) -> tr.Hls_ctrl.Fsm.t_from = s)
                    (List.filter
                       (fun (tr : Hls_ctrl.Fsm.transition) ->
                         match tr.Hls_ctrl.Fsm.t_guard with
                         | Hls_ctrl.Fsm.G_cond _ -> true
                         | Hls_ctrl.Fsm.G_always -> false)
                       (Hls_ctrl.Fsm.transitions fsm))
                with
                | Some { Hls_ctrl.Fsm.t_guard = Hls_ctrl.Fsm.G_cond (_, nid); _ } ->
                    let st =
                      List.find
                        (fun (x : Hls_ctrl.Fsm.state) -> x.Hls_ctrl.Fsm.sid = s)
                        (Hls_ctrl.Fsm.states fsm)
                    in
                    [ ((st.Hls_ctrl.Fsm.block, nid), v) ]
                | _ -> [])
            | _ -> []
          in
          Hls_ctrl.Ctrl_synth.next_state c ~state:s ~conds
      | None -> (
          let taken =
            List.find_opt
              (fun (tr : Hls_ctrl.Fsm.transition) ->
                match tr.Hls_ctrl.Fsm.t_guard with
                | Hls_ctrl.Fsm.G_always -> true
                | Hls_ctrl.Fsm.G_cond (pol, _) -> (
                    match cond_value with
                    | Some v -> v = pol
                    | None -> raise (Hls_sim.Rtl_sim.Sim_error "branch without condition wire")))
              (Hls_ctrl.Fsm.outgoing fsm s)
          in
          match taken with
          | Some tr -> tr.Hls_ctrl.Fsm.t_to
          | None -> raise (Hls_sim.Rtl_sim.Sim_error (Printf.sprintf "state %d has no enabled transition" s)))
    in
    (* clock edge: commit loads and the state register together *)
    List.iter (fun (r, v) -> Hashtbl.replace regs r v) pending;
    state := next;
    (match on_cycle with
    | Some f ->
        f ~cycle:!cycles ~state:!state
          ~regs:(Hashtbl.fold (fun r v acc -> (r, v) :: acc) regs [] |> List.sort compare)
    | None -> ())
  done;
  let finals = Hashtbl.fold (fun r v acc -> (r, v) :: acc) regs [] |> List.sort compare in
  { Hls_sim.Rtl_sim.finals; cycles = !cycles }
