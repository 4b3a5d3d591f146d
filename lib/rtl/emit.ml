open Hls_cdfg

let op_expr (op : Op.t) args =
  let a i = List.nth args i in
  match op with
  | Op.Add -> Printf.sprintf "%s + %s" (a 0) (a 1)
  | Op.Sub -> Printf.sprintf "%s - %s" (a 0) (a 1)
  | Op.Mul -> Printf.sprintf "%s * %s" (a 0) (a 1)
  | Op.Div -> Printf.sprintf "%s / %s" (a 0) (a 1)
  | Op.Mod -> Printf.sprintf "%s %% %s" (a 0) (a 1)
  | Op.Shl -> Printf.sprintf "%s << %s" (a 0) (a 1)
  | Op.Shr -> Printf.sprintf "%s >>> %s" (a 0) (a 1)
  | Op.And -> Printf.sprintf "%s & %s" (a 0) (a 1)
  | Op.Or -> Printf.sprintf "%s | %s" (a 0) (a 1)
  | Op.Xor -> Printf.sprintf "%s ^ %s" (a 0) (a 1)
  | Op.Not -> Printf.sprintf "~%s" (a 0)
  | Op.Neg -> Printf.sprintf "-%s" (a 0)
  | Op.Cmp c ->
      let sym =
        match c with
        | Op.Ceq -> "=="
        | Op.Cne -> "!="
        | Op.Clt -> "<"
        | Op.Cle -> "<="
        | Op.Cgt -> ">"
        | Op.Cge -> ">="
      in
      Printf.sprintf "%s %s %s" (a 0) sym (a 1)
  | Op.Incr -> Printf.sprintf "%s + 1" (a 0)
  | Op.Decr -> Printf.sprintf "%s - 1" (a 0)
  | Op.Zdetect -> Printf.sprintf "%s == 0" (a 0)
  | Op.Mux -> Printf.sprintf "%s ? %s : %s" (a 0) (a 1) (a 2)
  | Op.Write _ -> a 0
  | Op.Const v -> string_of_int v
  | Op.Read v -> v

let verilog ~name (dp : Datapath.t) =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let fsm = dp.Datapath.fsm in
  let n_states = Hls_ctrl.Fsm.n_states fsm in
  let sbits = Hls_ctrl.Encoding.width Hls_ctrl.Encoding.Binary ~n_states in
  out "// generated by hlsc — structural RTL\n";
  out "module %s(input clk, input rst, output done);\n" name;
  Array.iter
    (fun (r : Datapath.reg_def) ->
      out "  reg signed [%d:0] %s; // %s\n" (r.Datapath.rwidth - 1) r.Datapath.rname
        (match r.Datapath.rkind with
        | `In_port -> "input port"
        | `Out_port -> "output port"
        | `Var -> "variable"
        | `Temp -> "temporary"))
    dp.Datapath.regs;
  out "  reg [%d:0] state;\n" (sbits - 1);
  Array.iteri
    (fun i (f : Datapath.fu_def) ->
      out "  reg signed [%d:0] fu%d_out; // %s\n" (f.Datapath.fwidth - 1) i
        f.Datapath.comp.Component.cname)
    dp.Datapath.fus;
  out "  assign done = (state == %d);\n" (Hls_ctrl.Fsm.done_state fsm);
  (* functional units *)
  out "\n  // functional units\n  always @* begin\n";
  Array.iteri (fun i _ -> out "    fu%d_out = 0;\n" i) dp.Datapath.fus;
  out "    case (state)\n";
  List.iter
    (fun (s : Hls_ctrl.Fsm.state) ->
      let acts = dp.Datapath.acts.(s.Hls_ctrl.Fsm.sid) in
      if acts <> [||] then begin
        out "      %d: begin\n" s.Hls_ctrl.Fsm.sid;
        Array.iter
          (fun (a : Datapath.activity) ->
            out "        fu%d_out = %s;\n" a.Datapath.a_fu
              (op_expr a.Datapath.a_op (List.map Wire.to_string a.Datapath.a_args)))
          acts;
        out "      end\n"
      end)
    (Hls_ctrl.Fsm.states fsm);
  out "      default: ;\n    endcase\n  end\n";
  (* register transfers and next state *)
  out "\n  // register transfers and control\n  always @(posedge clk) begin\n";
  out "    if (rst) state <= %d;\n    else begin\n" (Hls_ctrl.Fsm.entry fsm);
  out "      case (state)\n";
  List.iter
    (fun (s : Hls_ctrl.Fsm.state) ->
      let sid = s.Hls_ctrl.Fsm.sid in
      out "        %d: begin\n" sid;
      Array.iter
        (fun (l : Datapath.load) ->
          out "          %s <= %s;\n" l.Datapath.l_reg (Wire.to_string l.Datapath.l_wire))
        dp.Datapath.loads.(sid);
      (match Hls_ctrl.Fsm.outgoing fsm sid with
      | [ { Hls_ctrl.Fsm.t_guard = Hls_ctrl.Fsm.G_always; t_to; _ } ] ->
          out "          state <= %d;\n" t_to
      | trs -> (
          match dp.Datapath.conds.(sid) with
          | Some cw ->
              let target pol =
                List.find_map
                  (fun (tr : Hls_ctrl.Fsm.transition) ->
                    match tr.Hls_ctrl.Fsm.t_guard with
                    | Hls_ctrl.Fsm.G_cond (p, _) when p = pol -> Some tr.Hls_ctrl.Fsm.t_to
                    | _ -> None)
                  trs
              in
              (match (target true, target false) with
              | Some tt, Some tf ->
                  out "          state <= (%s) ? %d : %d;\n" (Wire.to_string cw) tt tf
              | _ -> out "          // malformed branch\n")
          | None -> out "          // no transition\n"));
      out "        end\n")
    (Hls_ctrl.Fsm.states fsm);
  out "        default: state <= %d;\n" (Hls_ctrl.Fsm.done_state fsm);
  out "      endcase\n    end\n  end\nendmodule\n";
  Buffer.contents buf

let dot ?(name = "datapath") (dp : Datapath.t) =
  let d = Hls_util.Dot.create name in
  Array.iter
    (fun (r : Datapath.reg_def) ->
      Hls_util.Dot.node d
        ~attrs:
          [
            ("label", Printf.sprintf "%s[%d]" r.Datapath.rname r.Datapath.rwidth);
            ("shape", "box");
          ]
        ("reg_" ^ r.Datapath.rname))
    dp.Datapath.regs;
  Array.iteri
    (fun i (f : Datapath.fu_def) ->
      Hls_util.Dot.node d
        ~attrs:
          [
            ("label", Printf.sprintf "FU%d %s" i f.Datapath.comp.Component.cname);
            ("shape", "ellipse");
          ]
        (Printf.sprintf "fu_%d" i))
    dp.Datapath.fus;
  (* edges: register -> FU for inputs; FU/reg -> register for loads *)
  let edge_seen = Hashtbl.create 64 in
  let emit_edge src dst =
    if not (Hashtbl.mem edge_seen (src, dst)) then begin
      Hashtbl.add edge_seen (src, dst) ();
      Hls_util.Dot.edge d src dst
    end
  in
  Array.iter
    (Array.iter (fun (a : Datapath.activity) ->
         List.iter
           (fun w ->
             List.iter
               (fun r -> emit_edge ("reg_" ^ r) (Printf.sprintf "fu_%d" a.Datapath.a_fu))
               (Wire.regs_read w))
           a.Datapath.a_args))
    dp.Datapath.acts;
  Array.iter
    (Array.iter (fun (l : Datapath.load) ->
         List.iter
           (fun u -> emit_edge (Printf.sprintf "fu_%d" u) ("reg_" ^ l.Datapath.l_reg))
           (Wire.fus_read l.Datapath.l_wire);
         List.iter
           (fun r -> emit_edge ("reg_" ^ r) ("reg_" ^ l.Datapath.l_reg))
           (Wire.regs_read l.Datapath.l_wire)))
    dp.Datapath.loads;
  Hls_util.Dot.render d
