(* Oracle for Hls_alloc.Lifetime.interference: the byte-matrix version
   it replaced, with each variable named through Cfg_facts.var_id and
   every step boundary's held variables kept as a list. It reads the
   table only through the public value list and answers the same
   conflict relation; the differential property in test_alloc.ml
   compares the two. *)

open Hls_cdfg
module Lifetime = Hls_alloc.Lifetime
module Cfg_facts = Hls_alloc.Cfg_facts

type t = { vars : string array; conflicts : Bytes.t (* vars x vars *) }

let vars ix = ix.vars
let conflict ix i j = Bytes.get ix.conflicts ((i * Array.length ix.vars) + j) <> '\000'

let interference lt ~outputs =
  let cs = Lifetime.schedule lt in
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let facts = Cfg_facts.make ~outputs cfg in
  let vars = facts.Cfg_facts.vars in
  let nv = Array.length vars in
  let conflicts = Bytes.make (nv * nv) '\000' in
  List.iter
    (fun bid ->
      let fb = facts.Cfg_facts.blocks.(bid) in
      let g = Cfg.dfg cfg bid in
      let sched = Hls_sched.Cfg_sched.block_schedule cs bid in
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
        (fun (info : Lifetime.value_info) ->
          match (info.Lifetime.storage, Dfg.op g info.Lifetime.nid) with
          | Lifetime.In_variable v, _ ->
              occupy (id v) info.Lifetime.produced (info.Lifetime.last_use - 1)
          | Lifetime.Temp iv, Op.Read v -> occupy (id v) 0 (iv.Hls_util.Interval.lo - 1)
          | (Lifetime.Temp _ | Lifetime.No_storage), _ -> ())
        (Lifetime.values lt bid);
      List.iter
        (fun (v, w) ->
          let i = id v in
          let s = Hls_sched.Schedule.write_step sched w in
          last_write.(i) <- max last_write.(i) s;
          occupy i s s)
        (Dfg.writes g);
      List.iter (fun i -> occupy i last_write.(i) n) fb.Cfg_facts.live_out;
      Array.iter
        (fun held_k ->
          List.iter
            (fun i -> List.iter (fun j -> Bytes.set conflicts ((i * nv) + j) '\001') held_k)
            held_k)
        members)
    (Cfg.block_ids cfg);
  { vars; conflicts }
