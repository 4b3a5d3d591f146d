open Hls_util
open Hls_cdfg

type storage = In_variable of string | Temp of Interval.t | No_storage

type value_info = {
  nid : Dfg.nid;
  produced : int;
  last_use : int;
  storage : storage;
}

module Schedule = Hls_sched.Schedule

(* One scheduled block over dense variable ids: [node_var] names the
   variable of each Read/Write node, [write_ids] lists the block's
   writes in node order. Returns the stored values in node order, each
   node's storage, and each node's holding variable (the id of the
   variable whose register holds an [In_variable] value, -1 otherwise). *)
let analyze_block ~vars ~node_var ~write_ids sched ~term_cond =
  let g = Schedule.dfg sched in
  let n = Dfg.n_nodes g in
  let n_steps = Schedule.n_steps sched in
  (* last step each stored value (entry read or occupying op) is
     consumed at; consumption of a free chain reaches its stored
     sources, constants excluded *)
  let last_use = Array.make n 0 in
  let rec consume id step =
    let node = Dfg.node g id in
    match node.Dfg.op with
    | Op.Const _ -> ()
    | Op.Read _ -> if last_use.(id) < step then last_use.(id) <- step
    | _ when Schedule.occupying_step sched id >= 0 ->
        if last_use.(id) < step then last_use.(id) <- step
    | _ -> List.iter (fun a -> consume a step) node.Dfg.args
  in
  for id = 0 to n - 1 do
    let node = Dfg.node g id in
    match node.Dfg.op with
    | Op.Write _ -> (
        (* a write latches at its producing step; its sources must be
           readable during that step *)
        match node.Dfg.args with
        | [ a ] -> consume a (Schedule.write_step sched id)
        | _ -> ())
    | _ ->
        let s = Schedule.occupying_step sched id in
        if s >= 0 then List.iter (fun a -> consume a s) node.Dfg.args
  done;
  (match term_cond with Some c -> consume c n_steps | None -> ());
  (* the write that stores a value directly (post-DCE: at most one; the
     first in node order otherwise) *)
  let written = Array.make n (-1) in
  List.iter
    (fun (_, w) ->
      match Dfg.args g w with [ a ] when written.(a) < 0 -> written.(a) <- w | _ -> ())
    write_ids;
  let write_step w = Schedule.write_step sched w in
  (* earliest write to variable [v] in this block, if any *)
  let first_write v =
    List.fold_left
      (fun acc (v', w) -> if v' = v then Int.min acc (write_step w) else acc)
      max_int write_ids
  in
  let by_node = Array.make n No_storage and held = Array.make n (-1) in
  let storage_of id produced lu =
    if lu <= produced then No_storage
    else
      let v = node_var.(id) in
      if v >= 0 then begin
        (* an entry read: the old value stays valid in v's register until
           the step in which v is overwritten (the new value latches at
           its end) *)
        let w = first_write v in
        if w < lu then Temp (Interval.make w (lu - 1))
        else begin
          held.(id) <- v;
          In_variable vars.(v)
        end
      end
      else
        let my_write = written.(id) in
        if my_write < 0 then Temp (Interval.make produced (lu - 1))
        else
          let v = node_var.(my_write) in
          let overwritten =
            List.exists
              (fun (v', w) ->
                v' = v && w <> my_write
                && write_step w >= produced
                && write_step w < lu)
              write_ids
          in
          if overwritten then Temp (Interval.make produced (lu - 1))
          else begin
            held.(id) <- v;
            In_variable vars.(v)
          end
  in
  let values = ref [] in
  for id = n - 1 downto 0 do
    let record produced =
      let lu = Int.max last_use.(id) produced in
      let storage = storage_of id produced lu in
      by_node.(id) <- storage;
      values := { nid = id; produced; last_use = lu; storage } :: !values
    in
    match Dfg.op g id with
    | Op.Read _ -> record 0
    | Op.Write _ -> () (* a write stores into a variable, it is not a value *)
    | _ ->
        let s = Schedule.occupying_step sched id in
        if s >= 0 then record s
  done;
  (!values, by_node, held)

let analyze ?writes sched ~term_cond =
  let g = Schedule.dfg sched in
  let writes = match writes with Some ws -> ws | None -> Dfg.writes g in
  (* the block's own variables, with ids local to this call *)
  let vars =
    Array.of_list
      (List.sort_uniq String.compare (List.map fst (Dfg.reads g) @ List.map fst writes))
  in
  let id v = Option.get (Cfg_facts.index_in vars v) in
  let node_var =
    Array.init (Dfg.n_nodes g) (fun nid ->
        match Dfg.op g nid with Op.Read v | Op.Write v -> id v | _ -> -1)
  in
  let write_ids = List.map (fun (v, w) -> (id v, w)) writes in
  let values, _, _ = analyze_block ~vars ~node_var ~write_ids sched ~term_cond in
  values

let branch_condition cfg bid =
  match Cfg.term cfg bid with Cfg.Branch (c, _, _) -> Some c | Cfg.Goto _ | Cfg.Halt -> None

(* ---- the table: every block of one scheduled CFG ---- *)

type block = {
  sched : Schedule.t;
  values : value_info list;
  by_node : storage array;
  held : int array;
  writes : (string * Dfg.nid) list;
  by_step : Dfg.nid list array;
}

(* [live]: the facts carry liveness (the caller's), not {!Cfg_facts.variables}' *)
type t = { cs : Hls_sched.Cfg_sched.t; facts : Cfg_facts.t; live : bool; blocks : block array }

let tables = Atomic.make 0
let tables_built () = Atomic.get tables

let table ?facts cs =
  Atomic.incr tables;
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let facts, live =
    match facts with Some f -> (f, true) | None -> (Cfg_facts.variables cfg, false)
  in
  let blocks =
    Array.mapi
      (fun bid (fb : Cfg_facts.block) ->
        let sched = Hls_sched.Cfg_sched.block_schedule cs bid in
        let values, by_node, held =
          analyze_block ~vars:facts.Cfg_facts.vars ~node_var:fb.Cfg_facts.node_var
            ~write_ids:fb.Cfg_facts.write_ids sched ~term_cond:fb.Cfg_facts.cond
        in
        { sched; values; by_node; held; writes = fb.Cfg_facts.writes; by_step = Schedule.by_step sched })
      facts.Cfg_facts.blocks
  in
  { cs; facts; live; blocks }

let schedule t = t.cs
let facts t = t.facts
let values t bid = t.blocks.(bid).values
let storage t bid nid = t.blocks.(bid).by_node.(nid)
let held_var t bid nid = t.blocks.(bid).held.(nid)
let writes t bid = t.blocks.(bid).writes
let by_step t bid = t.blocks.(bid).by_step

(* Occupancy and conflicts are bitsets over variable ids, [bits]
   variables to an int word. *)
let bits = Sys.int_size

type interference = { vars : string array; words : int; rows : int array }

let vars ix = ix.vars

let conflict ix i j = (ix.rows.((i * ix.words) + (j / bits)) lsr (j mod bits)) land 1 <> 0

let interference t ~outputs =
  let facts =
    let f = t.facts in
    if t.live && (f.Cfg_facts.outputs == outputs || f.Cfg_facts.outputs = outputs) then f
    else Cfg_facts.make ~outputs (Hls_sched.Cfg_sched.cfg t.cs)
  in
  let vars = facts.Cfg_facts.vars in
  let nv = Array.length vars in
  let words = (nv + bits - 1) / bits in
  let rows = Array.make (nv * words) 0 in
  Array.iteri
    (fun bid blk ->
      let fb = facts.Cfg_facts.blocks.(bid) in
      let n = Schedule.n_steps blk.sched in
      (* held.(k * words + w): word [w] of the variables whose registers
         are occupied at step boundary [k] *)
      let held = Array.make ((n + 1) * words) 0 in
      let occupy i lo hi =
        let w = i / bits and bit = 1 lsl (i mod bits) in
        for k = Int.max 0 lo to Int.min n hi do
          held.((k * words) + w) <- held.((k * words) + w) lor bit
        done
      in
      List.iter (fun i -> occupy i 0 0) fb.Cfg_facts.live_in;
      List.iter
        (fun info ->
          match info.storage with
          | In_variable _ -> occupy blk.held.(info.nid) info.produced (info.last_use - 1)
          | Temp iv ->
              (* an entry read an overwrite moved to a temporary *)
              let v = fb.Cfg_facts.node_var.(info.nid) in
              if v >= 0 then occupy v 0 (iv.Interval.lo - 1)
          | No_storage -> ())
        blk.values;
      let write_step w = Schedule.write_step blk.sched w in
      List.iter (fun (i, w) -> occupy i (write_step w) (write_step w)) fb.Cfg_facts.write_ids;
      List.iter
        (fun i ->
          let last =
            List.fold_left
              (fun acc (v, w) -> if v = i then Int.max acc (write_step w) else acc)
              0 fb.Cfg_facts.write_ids
          in
          occupy i last n)
        fb.Cfg_facts.live_out;
      (* every variable held at a boundary conflicts with all held there *)
      for k = 0 to n do
        let base = k * words in
        for i = 0 to nv - 1 do
          if (held.(base + (i / bits)) lsr (i mod bits)) land 1 <> 0 then
            for w = 0 to words - 1 do
              rows.((i * words) + w) <- rows.((i * words) + w) lor held.(base + w)
            done
        done
      done)
    t.blocks;
  { vars; words; rows }

let temps infos =
  List.filter_map
    (fun info ->
      match info.storage with
      | Temp iv -> Some (info.nid, iv)
      | In_variable _ | No_storage -> None)
    infos
