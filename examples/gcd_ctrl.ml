(* Control-dominated example: Euclid's GCD. Compares the three control
   styles of section 2 — random logic (by encoding), PLA, and microcode
   ROM — on the same schedule, and runs the design with the synthesized
   (Quine-McCluskey-minimized) next-state logic in the loop.

     dune exec examples/gcd_ctrl.exe *)

open Hls_core
open Hls_util

let () =
  let design = Flow.synthesize Workloads.gcd in
  let fsm = design.Flow.datapath.Hls_rtl.Datapath.fsm in
  Printf.printf "GCD controller: %d states\n\n" (Hls_ctrl.Fsm.n_states fsm);

  let t =
    Table.create
      ~headers:[ "encoding"; "state bits"; "literals(min)"; "literals(direct)"; "PLA rows"; "PLA area" ]
  in
  List.iter
    (fun style ->
      let c = Hls_ctrl.Ctrl_synth.synthesize ~style fsm in
      let rows = Hls_ctrl.Ctrl_synth.pla_rows c in
      Table.add_row t
        [
          Hls_ctrl.Encoding.style_to_string style;
          string_of_int (Hls_ctrl.Ctrl_synth.n_state_bits c);
          string_of_int (Hls_ctrl.Ctrl_synth.literal_cost c);
          string_of_int (Hls_ctrl.Ctrl_synth.direct_literal_cost c);
          string_of_int rows;
          string_of_int (Hls_ctrl.Ctrl_synth.pla_cost c ~rows);
        ])
    [ Hls_ctrl.Encoding.Binary; Hls_ctrl.Encoding.Gray; Hls_ctrl.Encoding.One_hot ];
  Table.print t;

  (* microcode cost on the same controller: one word per state holding
     the register-load enables and the unit operation selects *)
  let n_states = Hls_ctrl.Fsm.n_states fsm in
  let n_loads = List.length design.Flow.datapath.Hls_rtl.Datapath.regs in
  let fields =
    [
      { Hls_ctrl.Microcode.fname = "reg_enables"; fwidth = max 1 n_loads };
      { Hls_ctrl.Microcode.fname = "fu_op"; fwidth = 4 };
      { Hls_ctrl.Microcode.fname = "next_sel"; fwidth = 2 };
    ]
  in
  let words =
    Array.init n_states (fun sid ->
        let enables =
          List.mapi
            (fun i (r : Hls_rtl.Datapath.reg_def) ->
              if
                List.exists
                  (fun (l : Hls_rtl.Datapath.load) -> l.Hls_rtl.Datapath.l_reg = r.Hls_rtl.Datapath.rname)
                  (Hls_rtl.Datapath.loads_in design.Flow.datapath sid)
              then 1 lsl i
              else 0)
            design.Flow.datapath.Hls_rtl.Datapath.regs
          |> List.fold_left ( lor ) 0
        in
        let op_code =
          match Hls_rtl.Datapath.activities_in design.Flow.datapath sid with
          | a :: _ -> (Hashtbl.hash a.Hls_rtl.Datapath.a_op land 0xF)
          | [] -> 0
        in
        let branchy = if Hls_rtl.Datapath.cond_wire design.Flow.datapath sid <> None then 1 else 0 in
        [ enables; op_code; branchy ])
  in
  let mc = Hls_ctrl.Microcode.make ~fields ~words in
  Printf.printf "\n%s" (Format.asprintf "%a" Hls_ctrl.Microcode.pp mc);

  (* run with the minimized gate-level controller in the loop *)
  print_endline "\ngate-level controller simulation:";
  List.iter
    (fun (a, b) ->
      let r =
        Hls_sim.Rtl_sim.run ~controller:design.Flow.controller design.Flow.datapath
          ~inputs:[ ("a_in", a); ("b_in", b) ]
      in
      Printf.printf "  gcd(%d, %d) = %d  (%d cycles)\n" a b
        (List.assoc "g" r.Hls_sim.Rtl_sim.finals)
        r.Hls_sim.Rtl_sim.cycles)
    [ (12, 18); (35, 14); (81, 27); (1024, 768); (17, 5) ]
