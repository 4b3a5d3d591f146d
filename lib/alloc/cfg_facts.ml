open Hls_cdfg

type block = {
  reads : (string * Dfg.nid) list;
  writes : (string * Dfg.nid) list;
  write_ids : (int * Dfg.nid) list;
  node_var : int array;
  cond : Dfg.nid option;
  live_in : int list;
  live_out : int list;
}

type t = {
  cfg : Cfg.t;
  outputs : string list;
  vars : string array;
  blocks : block array;
  freq : int array;
}

(* [vars] is sorted: binary search *)
let index_in vars v =
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

(* [live] gives a block's live-in and live-out names; without it the
   live sets are empty *)
let build ~outputs ~vars ~live cfg =
  (* live sets may name an output nothing assigns *)
  let ids names = List.filter_map (index_in vars) names in
  let blocks =
    Array.init (Cfg.n_blocks cfg) (fun bid ->
        let g = Cfg.dfg cfg bid in
        let node_var = Array.make (Dfg.n_nodes g) (-1) in
        let reads, writes =
          Dfg.fold
            (fun (rs, ws) id node ->
              match node.Dfg.op with
              | Op.Read v ->
                  node_var.(id) <- Option.get (index_in vars v);
                  ((v, id) :: rs, ws)
              | Op.Write v ->
                  node_var.(id) <- Option.get (index_in vars v);
                  (rs, (v, id) :: ws)
              | _ -> (rs, ws))
            ([], []) g
        in
        let writes = List.rev writes in
        let live_in, live_out =
          match live with
          | Some l -> (ids (Liveness.live_in l bid), ids (Liveness.live_out l bid))
          | None -> ([], [])
        in
        {
          reads = List.rev reads;
          writes;
          write_ids = List.map (fun (_, w) -> (node_var.(w), w)) writes;
          node_var;
          cond = (match Cfg.term cfg bid with Cfg.Branch (c, _, _) -> Some c | _ -> None);
          live_in;
          live_out;
        })
  in
  { cfg; outputs; vars; blocks; freq = Cfg.exec_frequencies cfg }

let make ~outputs cfg =
  Atomic.incr runs;
  let live = Liveness.analyze ~live_at_exit:outputs cfg in
  build ~outputs ~vars:(Array.of_list (Liveness.all_variables live)) ~live:(Some live) cfg

let variables cfg =
  let names = ref [] in
  Cfg.iter
    (fun _ b ->
      Dfg.iter
        (fun _ node ->
          match node.Dfg.op with Op.Read v | Op.Write v -> names := v :: !names | _ -> ())
        b.Cfg.dfg)
    cfg;
  let vars = Array.of_list (List.sort_uniq String.compare !names) in
  build ~outputs:[] ~vars ~live:None cfg

let find_var t v = index_in t.vars v
let var_id t v = match index_in t.vars v with Some i -> i | None -> raise Not_found
