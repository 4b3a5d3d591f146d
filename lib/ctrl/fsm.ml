open Hls_cdfg

type state = { sid : int; block : Cfg.bid; step : int }

type guard = G_always | G_cond of bool * Dfg.nid

type transition = { t_from : int; t_guard : guard; t_to : int }

type t = {
  state_list : state list;
  trans : transition list;
  entry_sid : int;
  done_sid : int;
  first : int array;  (* block -> state id of its step 1 *)
  n_steps : int array;  (* block -> its step count *)
}

(* A block's states are consecutive: (bid, step) is state
   [first.(bid) + step - 1]. *)
let of_schedule cs =
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  let nb = Cfg.n_blocks cfg in
  let n_steps =
    Array.init nb (fun bid ->
        Hls_sched.Schedule.n_steps (Hls_sched.Cfg_sched.block_schedule cs bid))
  in
  let first = Array.make nb 0 in
  let states = ref [] in
  let next = ref 0 in
  for bid = 0 to nb - 1 do
    first.(bid) <- !next;
    for step = 1 to n_steps.(bid) do
      states := { sid = !next; block = bid; step } :: !states;
      incr next
    done
  done;
  let done_sid = !next in
  states := { sid = done_sid; block = -1; step = 0 } :: !states;
  let first_state bid = first.(bid) in
  let trans = ref [] in
  for bid = 0 to nb - 1 do
    let n = n_steps.(bid) in
    for step = 1 to n - 1 do
      let sid = first.(bid) + step - 1 in
      trans := { t_from = sid; t_guard = G_always; t_to = sid + 1 } :: !trans
    done;
    let last = first.(bid) + n - 1 in
    match Cfg.term cfg bid with
    | Cfg.Goto target ->
        trans := { t_from = last; t_guard = G_always; t_to = first_state target } :: !trans
    | Cfg.Branch (cond, bt, bf) ->
        trans :=
          { t_from = last; t_guard = G_cond (true, cond); t_to = first_state bt }
          :: { t_from = last; t_guard = G_cond (false, cond); t_to = first_state bf }
          :: !trans
    | Cfg.Halt ->
        trans := { t_from = last; t_guard = G_always; t_to = done_sid } :: !trans
  done;
  trans := { t_from = done_sid; t_guard = G_always; t_to = done_sid } :: !trans;
  {
    state_list = List.rev !states;
    trans = List.rev !trans;
    entry_sid = first_state (Cfg.entry cfg);
    done_sid;
    first;
    n_steps;
  }

let states t = t.state_list
let n_states t = List.length t.state_list
let transitions t = t.trans
let entry t = t.entry_sid
let done_state t = t.done_sid
let state_of t bid step =
  if bid < 0 || bid >= Array.length t.first || step < 1 || step > t.n_steps.(bid) then
    raise Not_found
  else t.first.(bid) + step - 1
let outgoing t sid = List.filter (fun tr -> tr.t_from = sid) t.trans

let pp ppf t =
  List.iter
    (fun s ->
      let name =
        if s.sid = t.done_sid then "DONE" else Printf.sprintf "b%d.s%d" s.block s.step
      in
      let outs =
        List.map
          (fun tr ->
            match tr.t_guard with
            | G_always -> Printf.sprintf "-> %d" tr.t_to
            | G_cond (pol, c) -> Printf.sprintf "-[%s%%%d]-> %d" (if pol then "" else "!") c tr.t_to)
          (outgoing t s.sid)
      in
      Format.fprintf ppf "S%d (%s)%s: %s@." s.sid name
        (if s.sid = t.entry_sid then " entry" else "")
        (String.concat " " outs))
    t.state_list

let to_dot ?(name = "fsm") t =
  let d = Hls_util.Dot.create name in
  List.iter
    (fun s ->
      let label =
        if s.sid = t.done_sid then "DONE" else Printf.sprintf "b%d.s%d" s.block s.step
      in
      Hls_util.Dot.node d ~attrs:[ ("label", label) ] (string_of_int s.sid))
    t.state_list;
  List.iter
    (fun tr ->
      let attrs =
        match tr.t_guard with
        | G_always -> []
        | G_cond (pol, c) ->
            [ ("label", Printf.sprintf "%s%%%d" (if pol then "" else "!") c) ]
      in
      Hls_util.Dot.edge d ~attrs (string_of_int tr.t_from) (string_of_int tr.t_to))
    t.trans;
  Hls_util.Dot.render d
