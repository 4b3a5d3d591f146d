open Hls_cdfg
open Hls_alloc

type reg_def = {
  rname : string;
  rwidth : int;
  rkind : [ `In_port | `Out_port | `Var | `Temp ];
}

type fu_def = { comp : Component.t; fwidth : int }

type activity = { a_fu : int; a_op : Op.t; a_ty : Hls_lang.Ast.ty; a_args : Wire.t list }

type load = { l_reg : string; l_wire : Wire.t }

type t = {
  regs : reg_def array;
  fus : fu_def array;
  acts : activity array array;
  loads : load array array;
  conds : Wire.t option array;
  fsm : Hls_ctrl.Fsm.t;
}

let build ?node_bits ?lifetimes cs ~fu ~regs ~ports =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let lt = match lifetimes with Some lt -> lt | None -> Lifetime.table cs in
  let facts = Lifetime.facts lt in
  let fsm = Hls_ctrl.Fsm.of_schedule cs in
  (* storage width of one node's value: declared type width by default,
     or the caller's (range-inferred) narrowing *)
  let nb bid nid (node : Dfg.node) =
    match node_bits with Some f -> f bid nid | None -> Op.bits_of node.Dfg.ty
  in
  (* ---- register inventory, by register id: the allocator's registers,
     then each port that names none of them (ports are distinct) ---- *)
  let n_alloc = Reg_alloc.n_names regs in
  let extras = ref [] and n_regs = ref n_alloc in
  let port_regs =
    List.map
      (fun (p, dir, ty) ->
        let r =
          match Cfg_facts.find_var facts p with
          | Some i -> Reg_alloc.var_register regs i
          | None ->
              let r = Reg_alloc.find_register regs p in
              if r >= 0 then r
              else begin
                extras := p :: !extras;
                incr n_regs;
                !n_regs - 1
              end
        in
        (r, dir, ty))
      ports
  in
  let n_regs = !n_regs and extras = Array.of_list (List.rev !extras) in
  let name r = if r < n_alloc then Reg_alloc.name regs r else extras.(r - n_alloc) in
  let widths = Array.make n_regs (-1) in
  let kinds = Array.make n_regs `Var in
  let note_reg r width kind =
    if widths.(r) < 0 then kinds.(r) <- kind
    else begin
      (* port kinds take precedence over Var *)
      match kinds.(r) with `In_port | `Out_port -> () | _ -> kinds.(r) <- kind
    end;
    widths.(r) <- Int.max (Int.max 0 widths.(r)) width
  in
  List.iter
    (fun (r, dir, ty) ->
      note_reg r (Op.bits_of ty) (match dir with `In -> `In_port | `Out -> `Out_port))
    port_regs;
  (* a temp register's width is the max over the values sharing its track *)
  Array.iteri
    (fun bid (fb : Cfg_facts.block) ->
      Dfg.iter
        (fun nid node ->
          let v = fb.Cfg_facts.node_var.(nid) in
          if v >= 0 then note_reg (Reg_alloc.var_register regs v) (nb bid nid node) `Var;
          let t = Reg_alloc.temp_register_id regs bid nid in
          if t >= 0 then note_reg t (nb bid nid node) `Temp)
        (Cfg.dfg cfg bid))
    facts.Cfg_facts.blocks;
  let reg_defs = ref [] in
  for r = n_regs - 1 downto 0 do
    if widths.(r) >= 0 then
      reg_defs := { rname = name r; rwidth = widths.(r); rkind = kinds.(r) } :: !reg_defs
  done;
  let reg_defs = Array.of_list !reg_defs in
  Array.sort (fun a b -> String.compare a.rname b.rname) reg_defs;
  (* ---- wire construction: the interconnect names the net a value is
     read from; a free chain's root expands into its logic over the nets
     its operands are read from at the same step ---- *)
  let resolver = Interconnect.resolver ~lifetimes:lt cs ~fu ~regs in
  let rec wire_for g bid nid ~step =
    let node = Dfg.node g nid in
    match Interconnect.resolve resolver bid nid ~step with
    | Interconnect.W_fu_out u -> Wire.W_fu_out (u, node.Dfg.ty)
    | Interconnect.W_reg name -> Wire.W_reg name
    | Interconnect.W_const c -> Wire.W_const (c, node.Dfg.ty)
    | Interconnect.W_wire _ -> (
        let go a = wire_for g bid a ~step in
        match (node.Dfg.op, node.Dfg.args) with
        | Op.Shl, [ a; amount ] | Op.Shr, [ a; amount ] -> (
            match (Dfg.op g amount, node.Dfg.op) with
            | Op.Const k, Op.Shl -> Wire.W_shl (go a, k, node.Dfg.ty)
            | Op.Const k, _ -> Wire.W_shr (go a, k, node.Dfg.ty)
            | _ -> invalid_arg "Datapath: variable shift is not free wiring")
        | Op.Zdetect, [ a ] -> Wire.W_zdetect (go a)
        | Op.Mux, [ c; a; b ] -> Wire.W_mux (go c, go a, go b, node.Dfg.ty)
        | op, _ ->
            invalid_arg
              (Printf.sprintf "Datapath: malformed free operation %s" (Op.to_string op)))
  in
  let rec wires_for g bid args ~step =
    match args with [] -> [] | a :: rest -> wire_for g bid a ~step :: wires_for g bid rest ~step
  in
  (* ---- functional units and their activations, by unit id and state;
     per-state lists are built in reverse, then reversed once ---- *)
  let n_states = Hls_ctrl.Fsm.n_states fsm in
  let per_state rev = Array.map (fun l -> Array.of_list (List.rev l)) rev in
  let n_fus = List.length fu.Fu_alloc.instances in
  let fu_widths = Array.make n_fus 1 in
  let fu_ops = Array.make n_fus [] in
  let acts = Array.make n_states [] in
  for bid = 0 to Cfg.n_blocks cfg - 1 do
    let g = Cfg.dfg cfg bid in
    Array.iteri
      (fun step nids ->
        List.iter
          (fun nid ->
            let state = Hls_ctrl.Fsm.state_of fsm bid step in
            let node = Dfg.node g nid in
            let unit_id = Fu_alloc.of_op fu bid nid in
            let args = wires_for g bid node.Dfg.args ~step in
            if unit_id < n_fus then begin
              fu_widths.(unit_id) <- Int.max fu_widths.(unit_id) (nb bid nid node);
              fu_ops.(unit_id) <- node.Dfg.op :: fu_ops.(unit_id)
            end;
            acts.(state) <-
              { a_fu = unit_id; a_op = node.Dfg.op; a_ty = node.Dfg.ty; a_args = args }
              :: acts.(state))
          nids)
      (Lifetime.by_step lt bid)
  done;
  let fus =
    Array.of_list
      (List.mapi
         (fun i (inst : Fu_alloc.instance) ->
           if inst.Fu_alloc.fu_id <> i then invalid_arg "Datapath: unit ids are not dense";
           let comp = Component.bind ~cls:inst.Fu_alloc.fu_cls ~ops:fu_ops.(i) in
           { comp; fwidth = fu_widths.(i) })
         fu.Fu_alloc.instances)
  in
  (* ---- register loads ---- *)
  let loads = Array.make n_states [] in
  for bid = 0 to Cfg.n_blocks cfg - 1 do
    let g = Cfg.dfg cfg bid in
    Interconnect.iter_latches resolver bid (fun reg nid step ->
        let state = Hls_ctrl.Fsm.state_of fsm bid step in
        loads.(state) <- { l_reg = name reg; l_wire = wire_for g bid nid ~step } :: loads.(state))
  done;
  (* ---- branch conditions, each in its block's last state ---- *)
  let conds = Array.make n_states None in
  Array.iteri
    (fun bid (fb : Cfg_facts.block) ->
      Option.iter
        (fun c ->
          let n = Hls_sched.Schedule.n_steps (Hls_sched.Cfg_sched.block_schedule cs bid) in
          let state = Hls_ctrl.Fsm.state_of fsm bid n in
          conds.(state) <- Some (wire_for (Cfg.dfg cfg bid) bid c ~step:n))
        fb.Cfg_facts.cond)
    facts.Cfg_facts.blocks;
  { regs = reg_defs; fus; acts = per_state acts; loads = per_state loads; conds; fsm }

let register_index regs name =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare name regs.(mid).rname in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length regs)

let stats t =
  let count per_state = Array.fold_left (fun acc a -> acc + Array.length a) 0 per_state in
  Printf.sprintf "%d registers, %d functional units, %d activations, %d register loads"
    (Array.length t.regs) (Array.length t.fus) (count t.acts) (count t.loads)
