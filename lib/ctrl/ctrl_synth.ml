open Hls_cdfg

type t = {
  enc_style : Encoding.style;
  state_bits : int;
  conds : (Cfg.bid * Dfg.nid) list;
  codes : int array;
  fsm : Fsm.t;
  direct : Logic.sop array;
  minimized : Logic.sop array;
}

let collect_conds fsm =
  let block = Array.make (Fsm.n_states fsm) 0 in
  List.iter (fun (s : Fsm.state) -> block.(s.Fsm.sid) <- s.Fsm.block) (Fsm.states fsm);
  List.filter_map
    (fun (tr : Fsm.transition) ->
      match tr.Fsm.t_guard with
      | Fsm.G_cond (_, nid) -> Some (block.(tr.Fsm.t_from), nid)
      | Fsm.G_always -> None)
    (Fsm.transitions fsm)
  |> List.sort_uniq compare

(* cube asserting that the state register holds [code] *)
let state_cube style ~state_bits ~code =
  match style with
  | Encoding.One_hot ->
      (* with one-hot codes, testing the single 1 bit suffices *)
      { Logic.mask = code; value = code }
  | Encoding.Binary | Encoding.Gray ->
      let mask = (1 lsl state_bits) - 1 in
      { Logic.mask; value = code land mask }

(* per state, in sid order (the order of Fsm.transitions): its code and
   its outgoing transitions as (guard cube, target code), with condition
   bits resolved once per transition *)
let moves_of fsm codes state_bits conds =
  (* each state's outgoing transitions, in transition order *)
  let outgoing = Array.make (Fsm.n_states fsm) [] in
  List.iter
    (fun (tr : Fsm.transition) -> outgoing.(tr.Fsm.t_from) <- tr :: outgoing.(tr.Fsm.t_from))
    (List.rev (Fsm.transitions fsm));
  List.map
    (fun (s : Fsm.state) ->
      let move (tr : Fsm.transition) =
        let guard =
          match tr.Fsm.t_guard with
          | Fsm.G_always -> { Logic.mask = 0; value = 0 }
          | Fsm.G_cond (pol, nid) ->
              let i = Option.get (List.find_index (( = ) (s.Fsm.block, nid)) conds) in
              let bit = 1 lsl (state_bits + i) in
              { Logic.mask = bit; value = (if pol then bit else 0) }
        in
        (guard, codes.(tr.Fsm.t_to))
      in
      (codes.(s.Fsm.sid), List.map move outgoing.(s.Fsm.sid)))
    (Fsm.states fsm)

let direct_logic_of style state_bits moves =
  let out = Array.make state_bits [] in
  List.iter
    (fun (code, outs) ->
      let base = state_cube style ~state_bits ~code in
      List.iter
        (fun ((guard : Logic.cube), target) ->
          let cube =
            { Logic.mask = base.Logic.mask lor guard.mask; value = base.value lor guard.value }
          in
          for k = 0 to state_bits - 1 do
            if target land (1 lsl k) <> 0 then out.(k) <- cube :: out.(k)
          done)
        outs)
    moves;
  Array.map List.rev out

(* Exact truth tables when tractable: per used state code, every
   condition assignment's target sets its bits' on-tables; every
   minterm of an unused code is a don't-care for every output. *)
let minimized_logic_of state_bits n_inputs moves =
  if n_inputs > Qm.max_inputs then None
  else begin
    let on = Array.init state_bits (fun _ -> Qm.table ~n_inputs) in
    let used = Qm.table ~n_inputs in
    List.iter
      (fun (code, outs) ->
        for a = 0 to (1 lsl (n_inputs - state_bits)) - 1 do
          let x = code lor (a lsl state_bits) in
          Qm.add used x;
          let target =
            match List.find_opt (fun (guard, _) -> Logic.cube_covers guard x) outs with
            | Some (_, target) -> target
            | None -> code
          in
          for k = 0 to state_bits - 1 do
            if target land (1 lsl k) <> 0 then Qm.add on.(k) x
          done
        done)
      moves;
    let dc = Qm.complement used in
    Some (Array.map (fun on -> Qm.minimize_table ~on ~dc) on)
  end

let synthesize ?(style = Encoding.Binary) fsm =
  let n = Fsm.n_states fsm in
  let state_bits = Encoding.width style ~n_states:n in
  let codes = Encoding.encode style ~n_states:n in
  let conds = collect_conds fsm in
  let moves = moves_of fsm codes state_bits conds in
  let direct = direct_logic_of style state_bits moves in
  let minimized =
    match minimized_logic_of state_bits (state_bits + List.length conds) moves with
    | Some m -> m
    | None -> direct
  in
  { enc_style = style; state_bits; conds; codes; fsm; direct; minimized }

let with_fsm t fsm = { t with fsm }
let with_next_logic t minimized = { t with minimized }
let fsm t = t.fsm
let style t = t.enc_style
let n_state_bits t = t.state_bits
let n_inputs t = t.state_bits + List.length t.conds
let cond_signals t = t.conds
let state_code t sid = t.codes.(sid)
let next_logic t = t.minimized

let next_state t ~state ~conds =
  let x = ref t.codes.(state) in
  List.iteri
    (fun i key ->
      match List.assoc_opt key conds with
      | Some true -> x := !x lor (1 lsl (t.state_bits + i))
      | Some false | None -> ())
    t.conds;
  let code =
    Array.to_list t.minimized
    |> List.mapi (fun k sop -> if Logic.eval sop !x then 1 lsl k else 0)
    |> List.fold_left ( lor ) 0
  in
  (* decode back to a state id *)
  let found = ref (-1) in
  Array.iteri (fun sid c -> if c = code && !found = -1 then found := sid) t.codes;
  if !found = -1 then invalid_arg "Ctrl_synth.next_state: undecodable next code"
  else !found

let literal_cost t =
  Array.fold_left
    (fun acc sop -> acc + Logic.sop_literals ~n_inputs:(n_inputs t) sop)
    0 t.minimized

let direct_literal_cost t =
  Array.fold_left
    (fun acc sop -> acc + Logic.sop_literals ~n_inputs:(n_inputs t) sop)
    0 t.direct

let pla_rows t =
  Array.to_list t.minimized
  |> List.concat_map (fun sop -> List.map (fun (c : Logic.cube) -> (c.Logic.mask, c.Logic.value)) sop)
  |> List.sort_uniq compare |> List.length

let pla_cost t ~rows = rows * ((2 * n_inputs t) + t.state_bits)

let pp ppf t =
  Format.fprintf ppf "%s encoding: %d states, %d state bits, %d condition inputs@."
    (Encoding.style_to_string t.enc_style)
    (Fsm.n_states t.fsm) t.state_bits (List.length t.conds);
  Array.iteri
    (fun k sop ->
      Format.fprintf ppf "  D%d = %s@." k (Logic.sop_to_string ~n_inputs:(n_inputs t) sop))
    t.minimized
