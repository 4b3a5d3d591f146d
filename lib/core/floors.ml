open Hls_cdfg

type node_w = Dfg.t -> Cfg.bid -> Dfg.nid -> int
type cls_floor = { cls : Op.fu_class; min_w : int; wires : int list }

type block = {
  op_class : int array;
  op_area : int array;
  unit_area : int array;
  reg_area : int array;
}

type t = {
  port_names : string list;
  port_reg_area : int;
  reg_mux_area : int;
  cycle_ns : float;
  classes : cls_floor list;
  blocks : block array;
}

let n_classes = List.length Op.occupying_classes

let class_index cls =
  let rec go i = function
    | [] -> -1
    | c :: rest -> if c = cls then i else go (i + 1) rest
  in
  go 0 Op.occupying_classes

(* distinct constants, and whether anything else shows up, per slot *)
type wire_set = { mutable consts : int list; mutable computed : bool }

let note_wire ws g a =
  match Dfg.op g a with
  | Op.Const c -> if not (List.mem c ws.consts) then ws.consts <- c :: ws.consts
  | _ -> ws.computed <- true

let wire_count ws = List.length ws.consts + if ws.computed then 1 else 0

let make ~node_w ~ports (facts : Hls_alloc.Cfg_facts.t) =
  let cfg = facts.Hls_alloc.Cfg_facts.cfg in
  let port_names = List.map fst ports in
  (* per class: narrowest width and the wires at each argument position *)
  let min_w = Array.make n_classes max_int in
  let slots = Array.make n_classes [||] in
  let slot c pos =
    if pos >= Array.length slots.(c) then
      slots.(c) <-
        Array.init (pos + 1) (fun p ->
            if p < Array.length slots.(c) then slots.(c).(p)
            else { consts = []; computed = false });
    slots.(c).(pos)
  in
  (* per variable: the widest stored value and its assigned wires *)
  let var_w : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let var_wires : (string, wire_set) Hashtbl.t = Hashtbl.create 16 in
  let worst_delay = ref 0.0 in
  let blocks =
    Array.init (Cfg.n_blocks cfg) (fun bid ->
        let g = Cfg.dfg cfg bid in
        let n = Dfg.n_nodes g in
        let op_class = Array.make n (-1) and op_area = Array.make n 0 in
        let reg_area = Array.make n 0 and block_w = Array.make n_classes max_int in
        Dfg.iter
          (fun nid node ->
            let w = node_w g bid nid in
            reg_area.(nid) <- Hls_rtl.Component.register_area ~width:w;
            (match node.Dfg.op with
            | Op.Read v | Op.Write v -> (
                if w > Option.value (Hashtbl.find_opt var_w v) ~default:0 then
                  Hashtbl.replace var_w v w;
                match (node.Dfg.op, node.Dfg.args) with
                | Op.Write _, [ a ] ->
                    let ws =
                      match Hashtbl.find_opt var_wires v with
                      | Some ws -> ws
                      | None ->
                          let ws = { consts = []; computed = false } in
                          Hashtbl.replace var_wires v ws;
                          ws
                    in
                    note_wire ws g a
                | _ -> ())
            | _ -> ());
            if Dfg.occupies_step g nid then begin
              let cls = Dfg.fu_class_of g nid in
              let c = class_index cls in
              op_class.(nid) <- c;
              op_area.(nid) <- Hls_rtl.Component.min_area cls ~width:w;
              block_w.(c) <- min block_w.(c) w;
              min_w.(c) <- min min_w.(c) w;
              List.iteri (fun pos a -> note_wire (slot c pos) g a) node.Dfg.args;
              worst_delay := Float.max !worst_delay (Hls_rtl.Component.min_delay_ns cls)
            end)
          g;
        let unit_area =
          Array.mapi
            (fun c w ->
              if w = max_int then 0
              else Hls_rtl.Component.min_area (List.nth Op.occupying_classes c) ~width:w)
            block_w
        in
        { op_class; op_area; unit_area; reg_area })
  in
  let touched = Hashtbl.create 16 in
  Array.iter
    (fun (b : Hls_alloc.Cfg_facts.block) ->
      List.iter (fun (v, _) -> Hashtbl.replace touched v ()) b.Hls_alloc.Cfg_facts.reads;
      List.iter (fun (v, _) -> Hashtbl.replace touched v ()) b.Hls_alloc.Cfg_facts.writes)
    facts.Hls_alloc.Cfg_facts.blocks;
  let port_reg_area =
    List.fold_left
      (fun acc (p, ty) ->
        if Hashtbl.mem touched p then
          acc + Hls_rtl.Component.register_area ~width:(Op.bits_of ty)
        else acc)
      0 ports
  in
  let reg_mux_area =
    let sum, mx =
      Hashtbl.fold
        (fun v w (sum, mx) ->
          let m = match Hashtbl.find_opt var_wires v with Some ws -> wire_count ws | None -> 0 in
          let a = Hls_rtl.Component.mux_area ~inputs:m ~width:w in
          if List.mem v port_names then (sum + a, mx) else (sum, max mx a))
        var_w (0, 0)
    in
    sum + mx
  in
  let cycle_ns =
    if !worst_delay > 0.0 then
      Hls_rtl.Component.register_delay_ns +. Hls_rtl.Component.mux_delay_ns +. !worst_delay
    else Hls_rtl.Component.register_delay_ns
  in
  let classes =
    List.concat
      (List.mapi
         (fun c cls ->
           if min_w.(c) = max_int then []
           else
             [ { cls; min_w = min_w.(c); wires = Array.to_list (Array.map wire_count slots.(c)) } ])
         Op.occupying_classes)
  in
  { port_names; port_reg_area; reg_mux_area; cycle_ns; classes; blocks }

let fu_area t ~class_floor =
  List.fold_left
    (fun acc { cls; min_w = w; wires } ->
      let fc = class_floor cls in
      let a_min = Hls_rtl.Component.min_area cls ~width:w in
      let cost u =
        max fc (u * a_min)
        + List.fold_left
            (fun s d -> s + Hls_rtl.Component.mux_area ~inputs:(max 1 (d - u + 1)) ~width:w)
            0 wires
      in
      let best = ref (cost 1) in
      for u = 2 to List.fold_left max 1 wires do
        if cost u < !best then best := cost u
      done;
      acc + !best)
    0 t.classes
