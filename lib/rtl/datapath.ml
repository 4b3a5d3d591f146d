open Hls_cdfg
open Hls_alloc

type reg_def = {
  rname : string;
  rwidth : int;
  rkind : [ `In_port | `Out_port | `Var | `Temp ];
}

type fu_def = { fuid : int; comp : Component.t; fwidth : int }

type activity = {
  a_state : int;
  a_fu : int;
  a_op : Op.t;
  a_ty : Hls_lang.Ast.ty;
  a_args : Wire.t list;
}

type load = { l_state : int; l_reg : string; l_wire : Wire.t }

type t = {
  regs : reg_def list;
  fus : fu_def list;
  activities : activity list;
  loads : load list;
  conds : (int * Wire.t) list;
  fsm : Hls_ctrl.Fsm.t;
}

let bits_of (ty : Hls_lang.Ast.ty) =
  match ty with
  | Hls_lang.Ast.Tbool -> 1
  | Hls_lang.Ast.Tint w -> w
  | Hls_lang.Ast.Tfix (i, f) -> i + f

let build ?node_bits cs ~fu ~regs ~ports =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let fsm = Hls_ctrl.Fsm.of_schedule cs in
  (* storage width of one node's value: declared type width by default,
     or the caller's (range-inferred) narrowing *)
  let nb bid nid (node : Dfg.node) =
    match node_bits with Some f -> f bid nid | None -> bits_of node.Dfg.ty
  in
  (* ---- register inventory ---- *)
  let widths : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let kinds : (string, [ `In_port | `Out_port | `Var | `Temp ]) Hashtbl.t =
    Hashtbl.create 16
  in
  let note_reg name width kind =
    let cur = match Hashtbl.find_opt widths name with Some w -> w | None -> 0 in
    Hashtbl.replace widths name (max cur width);
    (* port kinds take precedence over Var *)
    match (Hashtbl.find_opt kinds name, kind) with
    | Some (`In_port | `Out_port), _ -> ()
    | _, k -> Hashtbl.replace kinds name k
  in
  List.iter
    (fun (p, dir, ty) ->
      note_reg
        (Reg_alloc.register_of_var regs p)
        (bits_of ty)
        (match dir with `In -> `In_port | `Out -> `Out_port))
    ports;
  (* a temp register's width is the max over the values sharing its track *)
  List.iter
    (fun bid ->
      Dfg.iter
        (fun nid node ->
          (match node.Dfg.op with
          | Op.Read v | Op.Write v ->
              note_reg (Reg_alloc.register_of_var regs v) (nb bid nid node) `Var
          | _ -> ());
          match Reg_alloc.temp_register regs bid nid with
          | Some name -> note_reg name (nb bid nid node) `Temp
          | None -> ())
        (Cfg.dfg cfg bid))
    (Cfg.block_ids cfg);
  let reg_defs =
    Hashtbl.fold
      (fun name width acc ->
        { rname = name; rwidth = width; rkind = Hashtbl.find kinds name } :: acc)
      widths []
    |> List.sort (fun a b -> compare a.rname b.rname)
  in
  (* ---- wire construction: the interconnect names the net a value is
     read from; a free chain's root expands into its logic over the nets
     its operands are read from at the same step ---- *)
  let resolver = Interconnect.resolver cs ~fu ~regs in
  let rec wire_for bid nid ~step =
    let g = Cfg.dfg cfg bid in
    let node = Dfg.node g nid in
    let go a = wire_for bid a ~step in
    match Interconnect.resolve resolver bid nid ~step with
    | Interconnect.W_fu_out u -> Wire.W_fu_out (u, node.Dfg.ty)
    | Interconnect.W_reg name -> Wire.W_reg name
    | Interconnect.W_const c -> Wire.W_const (c, node.Dfg.ty)
    | Interconnect.W_wire _ -> (
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
  (* ---- functional units and their activations ---- *)
  let fu_widths : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let fu_ops : (int, Op.t list) Hashtbl.t = Hashtbl.create 8 in
  let activities = ref [] in
  List.iter
    (fun (r : Fu_alloc.op_ref) ->
      let g = Cfg.dfg cfg r.Fu_alloc.bid in
      let node = Dfg.node g r.Fu_alloc.nid in
      let unit_id = Fu_alloc.of_op fu (r.Fu_alloc.bid, r.Fu_alloc.nid) in
      let state = Hls_ctrl.Fsm.state_of fsm r.Fu_alloc.bid r.Fu_alloc.step in
      let args =
        List.map (fun a -> wire_for r.Fu_alloc.bid a ~step:r.Fu_alloc.step) node.Dfg.args
      in
      let cur_w = match Hashtbl.find_opt fu_widths unit_id with Some w -> w | None -> 1 in
      Hashtbl.replace fu_widths unit_id
        (max cur_w (nb r.Fu_alloc.bid r.Fu_alloc.nid node));
      let cur_ops = match Hashtbl.find_opt fu_ops unit_id with Some l -> l | None -> [] in
      Hashtbl.replace fu_ops unit_id (node.Dfg.op :: cur_ops);
      activities :=
        {
          a_state = state;
          a_fu = unit_id;
          a_op = node.Dfg.op;
          a_ty = node.Dfg.ty;
          a_args = args;
        }
        :: !activities)
    (Fu_alloc.collect cs);
  let fus =
    List.map
      (fun (inst : Fu_alloc.instance) ->
        let fuid = inst.Fu_alloc.fu_id in
        let ops = match Hashtbl.find_opt fu_ops fuid with Some l -> l | None -> [] in
        let comp = Component.bind ~cls:inst.Fu_alloc.fu_cls ~ops in
        let fwidth = match Hashtbl.find_opt fu_widths fuid with Some w -> w | None -> 1 in
        { fuid; comp; fwidth })
      fu.Fu_alloc.instances
  in
  (* ---- register loads ---- *)
  let loads =
    List.concat_map
      (fun bid ->
        List.map
          (fun (reg, nid, step) ->
            {
              l_state = Hls_ctrl.Fsm.state_of fsm bid step;
              l_reg = reg;
              l_wire = wire_for bid nid ~step;
            })
          (Interconnect.latches resolver bid))
      (Cfg.block_ids cfg)
  in
  (* ---- branch conditions ---- *)
  let conds =
    List.filter_map
      (fun bid ->
        match Cfg.term cfg bid with
        | Cfg.Branch (c, _, _) ->
            let n = Hls_sched.Schedule.n_steps (Hls_sched.Cfg_sched.block_schedule cs bid) in
            let state = Hls_ctrl.Fsm.state_of fsm bid n in
            Some (state, wire_for bid c ~step:n)
        | Cfg.Goto _ | Cfg.Halt -> None)
      (Cfg.block_ids cfg)
  in
  {
    regs = reg_defs;
    fus;
    activities = List.rev !activities;
    loads;
    conds;
    fsm;
  }

let reg_width t name =
  match List.find_opt (fun r -> r.rname = name) t.regs with
  | Some r -> r.rwidth
  | None -> raise Not_found

let fu_of t id = List.find (fun f -> f.fuid = id) t.fus

let activities_in t state = List.filter (fun a -> a.a_state = state) t.activities

let loads_in t state = List.filter (fun l -> l.l_state = state) t.loads

let cond_wire t state = List.assoc_opt state t.conds

(* Per-state view built in one pass — the simulator's replacement for
   calling the [List.filter] accessors above every cycle. State ids are
   dense (0 .. n_states-1), so plain arrays index them. *)
type index = {
  ix_acts : activity array array;
  ix_loads : load array array;
  ix_conds : Wire.t option array;
}

let index t =
  let n = Hls_ctrl.Fsm.n_states t.fsm in
  let acts = Array.make n [] and loads = Array.make n [] in
  (* build in reverse so each per-state list ends up in [t]'s order *)
  List.iter (fun a -> acts.(a.a_state) <- a :: acts.(a.a_state)) (List.rev t.activities);
  List.iter (fun l -> loads.(l.l_state) <- l :: loads.(l.l_state)) (List.rev t.loads);
  let conds = Array.make n None in
  (* first binding wins, as in [List.assoc_opt] *)
  List.iter
    (fun (s, w) -> if conds.(s) = None then conds.(s) <- Some w)
    t.conds;
  {
    ix_acts = Array.map Array.of_list acts;
    ix_loads = Array.map Array.of_list loads;
    ix_conds = conds;
  }

let acts_at ix state = ix.ix_acts.(state)
let loads_at ix state = ix.ix_loads.(state)
let cond_at ix state = ix.ix_conds.(state)

let stats t =
  Printf.sprintf "%d registers, %d functional units, %d activations, %d register loads"
    (List.length t.regs) (List.length t.fus) (List.length t.activities)
    (List.length t.loads)
