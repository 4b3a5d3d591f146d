open Hls_util
open Hls_cdfg

type storage = In_variable of string | Temp of Interval.t | No_storage

type value_info = {
  nid : Dfg.nid;
  produced : int;
  last_use : int;
  storage : storage;
}

(* Stored sources (entry reads and occupying ops) reachable through free
   chains from [id]; constants excluded. *)
let rec stored_sources g id acc =
  match Dfg.op g id with
  | Op.Const _ -> acc
  | Op.Read _ -> id :: acc
  | _ when Dfg.occupies_step g id -> id :: acc
  | _ -> List.fold_left (fun acc a -> stored_sources g a acc) acc (Dfg.args g id)

let analyze ?writes sched ~term_cond =
  let g = Hls_sched.Schedule.dfg sched in
  let n = Dfg.n_nodes g in
  let n_steps = Hls_sched.Schedule.n_steps sched in
  (* last step each stored value is consumed at *)
  let last_use = Array.make n 0 in
  let consume id step =
    List.iter
      (fun src -> last_use.(src) <- max last_use.(src) step)
      (stored_sources g id [])
  in
  Dfg.iter
    (fun id node ->
      match node.Dfg.op with
      | Op.Write _ -> (
          (* a write latches at its producing step; its sources must be
             readable during that step *)
          match node.Dfg.args with
          | [ a ] -> consume a (Hls_sched.Schedule.write_step sched id)
          | _ -> ())
      | _ when Dfg.occupies_step g id ->
          let s = Hls_sched.Schedule.step_of sched id in
          List.iter (fun a -> consume a s) node.Dfg.args
      | _ -> ())
    g;
  (match term_cond with Some c -> consume c n_steps | None -> ());
  let writes = match writes with Some ws -> ws | None -> Dfg.writes g in
  let write_step wnid = Hls_sched.Schedule.write_step sched wnid in
  (* earliest write to a variable in this block, if any *)
  let first_write v =
    List.fold_left
      (fun acc (v', wnid) ->
        if v' <> v then acc
        else
          match acc with
          | Some w when w <= write_step wnid -> acc
          | _ -> Some (write_step wnid))
      None writes
  in
  (* the variable a value is directly written to (post-DCE: at most one) *)
  let written_to id =
    List.find_map
      (fun (v, wnid) ->
        if Dfg.args g wnid = [ id ] then Some (v, wnid) else None)
      writes
  in
  let storage_of id node produced lu =
    if lu <= produced then No_storage
    else
      match node.Dfg.op with
      | Op.Read v -> (
          (* the old value stays valid in v's register until the step in
             which v is overwritten (the new value latches at its end) *)
          match first_write v with
          | Some w when w < lu -> Temp (Interval.make w (lu - 1))
          | Some _ | None -> In_variable v)
      | _ -> (
          match written_to id with
          | Some (v, my_write) ->
              let overwritten =
                List.exists
                  (fun (v', wnid) ->
                    v' = v && wnid <> my_write
                    && write_step wnid >= produced
                    && write_step wnid < lu)
                  writes
              in
              if overwritten then Temp (Interval.make produced (lu - 1))
              else In_variable v
          | None -> Temp (Interval.make produced (lu - 1)))
  in
  let infos = ref [] in
  Dfg.iter
    (fun id node ->
      let record produced =
        let lu = max last_use.(id) produced in
        infos :=
          { nid = id; produced; last_use = lu; storage = storage_of id node produced lu }
          :: !infos
      in
      match node.Dfg.op with
      | Op.Read _ -> record 0
      | Op.Write _ -> () (* a write stores into a variable, it is not a value *)
      | _ when Dfg.occupies_step g id -> record (Hls_sched.Schedule.step_of sched id)
      | _ -> ())
    g;
  List.rev !infos

let branch_condition cfg bid =
  match Cfg.term cfg bid with Cfg.Branch (c, _, _) -> Some c | Cfg.Goto _ | Cfg.Halt -> None

(* ---- the table: every block of one scheduled CFG ---- *)

type block = {
  values : value_info list;
  by_node : storage array;
  writes : (string * Dfg.nid) list;
  by_step : Dfg.nid list array;
}

type t = { cs : Hls_sched.Cfg_sched.t; facts : Cfg_facts.t option; blocks : block array }

let tables = Atomic.make 0
let tables_built () = Atomic.get tables

let table ?facts cs =
  Atomic.incr tables;
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let blocks =
    Array.init (Cfg.n_blocks cfg) (fun bid ->
        let sched = Hls_sched.Cfg_sched.block_schedule cs bid in
        let writes, term_cond =
          match facts with
          | Some (f : Cfg_facts.t) -> (f.blocks.(bid).writes, f.blocks.(bid).cond)
          | None -> (Dfg.writes (Cfg.dfg cfg bid), branch_condition cfg bid)
        in
        let values = analyze ~writes sched ~term_cond in
        let by_node = Array.make (Dfg.n_nodes (Cfg.dfg cfg bid)) No_storage in
        List.iter (fun info -> by_node.(info.nid) <- info.storage) values;
        { values; by_node; writes; by_step = Hls_sched.Schedule.by_step sched })
  in
  { cs; facts; blocks }

let schedule t = t.cs
let values t bid = t.blocks.(bid).values
let storage t bid nid = t.blocks.(bid).by_node.(nid)
let writes t bid = t.blocks.(bid).writes
let by_step t bid = t.blocks.(bid).by_step

type interference = { vars : string array; conflicts : Bytes.t (* vars x vars *) }

let vars ix = ix.vars
let conflict ix i j = Bytes.get ix.conflicts ((i * Array.length ix.vars) + j) <> '\000'

let interference t ~outputs =
  let facts =
    match t.facts with
    | Some f when f.Cfg_facts.outputs = outputs -> f
    | _ -> Cfg_facts.make ~outputs (Hls_sched.Cfg_sched.cfg t.cs)
  in
  let vars = facts.Cfg_facts.vars in
  let nv = Array.length vars in
  let conflicts = Bytes.make (nv * nv) '\000' in
  Array.iteri
    (fun bid blk ->
      let fb = facts.Cfg_facts.blocks.(bid) in
      let g = Cfg.dfg (Hls_sched.Cfg_sched.cfg t.cs) bid in
      let sched = Hls_sched.Cfg_sched.block_schedule t.cs bid in
      let n = Hls_sched.Schedule.n_steps sched in
      (* held.[k * nv + i]: variable i's register is occupied at step
         boundary k; members.(k) lists those variables *)
      let held = Bytes.make ((n + 1) * nv) '\000' in
      let members = Array.make (n + 1) [] in
      let last_write = Array.make nv 0 in
      let occupy i lo hi =
        for k = max 0 lo to min n hi do
          if Bytes.get held ((k * nv) + i) = '\000' then begin
            Bytes.set held ((k * nv) + i) '\001';
            members.(k) <- i :: members.(k)
          end
        done
      in
      let id = Cfg_facts.var_id facts in
      List.iter (fun i -> occupy i 0 0) fb.Cfg_facts.live_in;
      List.iter
        (fun info ->
          match (info.storage, Dfg.op g info.nid) with
          | In_variable v, _ -> occupy (id v) info.produced (info.last_use - 1)
          | Temp iv, Op.Read v -> occupy (id v) 0 (iv.Interval.lo - 1)
          | (Temp _ | No_storage), _ -> ())
        blk.values;
      List.iter
        (fun (i, w) ->
          let s = Hls_sched.Schedule.write_step sched w in
          last_write.(i) <- max last_write.(i) s;
          occupy i s s)
        fb.Cfg_facts.write_ids;
      List.iter (fun i -> occupy i last_write.(i) n) fb.Cfg_facts.live_out;
      Array.iter
        (fun held_k ->
          List.iter
            (fun i -> List.iter (fun j -> Bytes.set conflicts ((i * nv) + j) '\001') held_k)
            held_k)
        members)
    t.blocks;
  { vars; conflicts }

let temps infos =
  List.filter_map
    (fun info ->
      match info.storage with
      | Temp iv -> Some (info.nid, iv)
      | In_variable _ | No_storage -> None)
    infos
