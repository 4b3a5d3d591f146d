open Hls_cdfg

type t = { cfg : Cfg.t; scheds : Schedule.t array }

let init cfg f =
  let scheds = Array.init (Cfg.n_blocks cfg) f in
  let ops =
    List.fold_left
      (fun acc bid -> acc + List.length (Dfg.compute_ops (Cfg.dfg cfg bid)))
      0 (Cfg.block_ids cfg)
  in
  Hls_obs.Trace.add "sched/ops_scheduled" ops;
  Hls_obs.Trace.add "sched/steps"
    (Array.fold_left (fun acc s -> acc + Schedule.n_steps s) 0 scheds);
  { cfg; scheds }

let make cfg ~scheduler = init cfg (fun bid -> scheduler (Cfg.dfg cfg bid))

let cfg t = t.cfg

let block_schedule t bid = t.scheds.(bid)

let with_block t bid sched =
  let scheds = Array.copy t.scheds in
  scheds.(bid) <- sched;
  { t with scheds }

let digest t =
  Digest.string
    (String.concat "" (Array.to_list (Array.map Schedule.digest t.scheds)))

let compute_steps t =
  let freq = Cfg.exec_frequencies t.cfg in
  List.fold_left
    (fun acc bid ->
      let g = Cfg.dfg t.cfg bid in
      if Dfg.compute_ops g = [] then acc
      else acc + (Schedule.n_steps t.scheds.(bid) * freq.(bid)))
    0 (Cfg.block_ids t.cfg)

let total_states t =
  Array.fold_left (fun acc s -> acc + Schedule.n_steps s) 0 t.scheds

let verify limits t =
  let rec check = function
    | [] -> Ok ()
    | bid :: rest -> (
        match Schedule.verify limits t.scheds.(bid) with
        | Ok () -> check rest
        | Error e -> Error (Printf.sprintf "block %d: %s" bid e))
  in
  check (Cfg.block_ids t.cfg)

let pp ppf t =
  Cfg.iter
    (fun bid b ->
      Format.fprintf ppf "%s (%d steps):@." b.Cfg.label
        (Schedule.n_steps t.scheds.(bid));
      Schedule.pp ppf t.scheds.(bid))
    t.cfg
