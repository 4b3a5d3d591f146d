open Hls_cdfg

type block = {
  reads : (string * Dfg.nid) list;
  writes : (string * Dfg.nid) list;
  write_ids : (int * Dfg.nid) list;
  cond : Dfg.nid option;
  live_in : int list;
  live_out : int list;
}

type t = {
  cfg : Cfg.t;
  outputs : string list;
  vars : string array;
  blocks : block array;
}

(* [vars] is sorted: binary search *)
let find vars v =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare v vars.(mid) in
      if c = 0 then Some mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length vars)

let runs = Atomic.make 0
let liveness_runs () = Atomic.get runs

let make ~outputs cfg =
  Atomic.incr runs;
  let live = Liveness.analyze ~live_at_exit:outputs cfg in
  let vars = Array.of_list (Liveness.all_variables live) in
  (* live sets may name an output nothing assigns *)
  let ids names = List.filter_map (find vars) names in
  let blocks =
    Array.init (Cfg.n_blocks cfg) (fun bid ->
        let g = Cfg.dfg cfg bid in
        let reads, writes =
          Dfg.fold
            (fun (rs, ws) id node ->
              match node.Dfg.op with
              | Op.Read v -> ((v, id) :: rs, ws)
              | Op.Write v -> (rs, (v, id) :: ws)
              | _ -> (rs, ws))
            ([], []) g
        in
        let writes = List.rev writes in
        {
          reads = List.rev reads;
          writes;
          write_ids = List.map (fun (v, w) -> (Option.get (find vars v), w)) writes;
          cond = (match Cfg.term cfg bid with Cfg.Branch (c, _, _) -> Some c | _ -> None);
          live_in = ids (Liveness.live_in live bid);
          live_out = ids (Liveness.live_out live bid);
        })
  in
  { cfg; outputs; vars; blocks }

let var_id t v = match find t.vars v with Some i -> i | None -> raise Not_found
