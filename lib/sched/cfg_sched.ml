open Hls_cdfg

type t = { cfg : Cfg.t; scheds : Schedule.t array; freq : int array }

let ops_counter = Hls_obs.Trace.handle "sched/ops_scheduled"
let steps_counter = Hls_obs.Trace.handle "sched/steps"

let init ?freq cfg f =
  let freq = match freq with Some f -> f | None -> Cfg.exec_frequencies cfg in
  let scheds = Array.init (Cfg.n_blocks cfg) f in
  Hls_obs.Trace.add_to ops_counter
    (Array.fold_left (fun acc s -> acc + Schedule.n_ops s) 0 scheds);
  Hls_obs.Trace.add_to steps_counter
    (Array.fold_left (fun acc s -> acc + Schedule.n_steps s) 0 scheds);
  { cfg; scheds; freq }

let cfg t = t.cfg
let frequencies t = t.freq

let block_schedule t bid = t.scheds.(bid)

let with_block t bid sched =
  let scheds = Array.copy t.scheds in
  scheds.(bid) <- sched;
  { t with scheds }

let digest t =
  let b = Buffer.create 256 in
  Array.iter (Schedule.add_key b) t.scheds;
  Digest.string (Buffer.contents b)

let compute_steps t =
  let acc = ref 0 in
  Array.iteri
    (fun bid s -> if Schedule.n_ops s > 0 then acc := !acc + (Schedule.n_steps s * t.freq.(bid)))
    t.scheds;
  !acc

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
