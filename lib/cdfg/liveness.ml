module SS = Set.Make (String)

type t = { ins : SS.t array; outs : SS.t array; vars : SS.t }

let analyze ?(live_at_exit = []) (cfg : Cfg.t) =
  let n = Cfg.n_blocks cfg in
  let use = Array.make n SS.empty in
  let def = Array.make n SS.empty in
  let vars = ref SS.empty in
  Cfg.iter
    (fun bid b ->
      List.iter
        (fun (v, _) ->
          use.(bid) <- SS.add v use.(bid);
          vars := SS.add v !vars)
        (Dfg.reads b.dfg);
      List.iter
        (fun (v, _) ->
          def.(bid) <- SS.add v def.(bid);
          vars := SS.add v !vars)
        (Dfg.writes b.dfg))
    cfg;
  let exit_live = SS.of_list live_at_exit in
  let ins = Array.make n SS.empty in
  let outs = Array.make n SS.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for bid = n - 1 downto 0 do
      let out =
        match Cfg.term cfg bid with
        | Cfg.Halt -> exit_live
        | t ->
            List.fold_left
              (fun acc s -> SS.union acc ins.(s))
              SS.empty
              (match t with
              | Cfg.Goto b -> [ b ]
              | Cfg.Branch (_, bt, bf) -> [ bt; bf ]
              | Cfg.Halt -> [])
      in
      let inn = SS.union use.(bid) (SS.diff out def.(bid)) in
      if not (SS.equal out outs.(bid) && SS.equal inn ins.(bid)) then begin
        outs.(bid) <- out;
        ins.(bid) <- inn;
        changed := true
      end
    done
  done;
  { ins; outs; vars = !vars }

let live_in t bid = SS.elements t.ins.(bid)

let live_out t bid = SS.elements t.outs.(bid)

let all_variables t = SS.elements t.vars
