open Hls_ctrl
open Diagnostic

let rules =
  [
    ("CTRL001", "FSM state unreachable from the entry");
    ("CTRL002", "conflicting transitions leave one state");
    ("CTRL003", "state has no outgoing transition");
    ("CTRL004", "branching state covers only one condition polarity");
    ("CTRL005", "transition endpoint is not a state of the machine");
    ("CTRL006", "two states share an encoded state code");
    ("CTRL007", "next-state logic disagrees with the transition relation");
    ("CTRL008", "microcode word does not fit its fields");
    ("CTRL009", "microcode field holds the same value in every word");
  ]

let check_fsm ~states ~transitions ~entry =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let ids = List.map (fun (s : Fsm.state) -> s.Fsm.sid) states in
  let is_state sid = List.mem sid ids in
  List.iter
    (fun (tr : Fsm.transition) ->
      List.iter
        (fun endpoint ->
          if not (is_state endpoint) then
            add
              (error Ctrl ~code:"CTRL005" (Transition (tr.Fsm.t_from, tr.Fsm.t_to))
                 "endpoint %d is not a state of the machine" endpoint))
        [ tr.Fsm.t_from; tr.Fsm.t_to ])
    transitions;
  List.iter
    (fun (s : Fsm.state) ->
      let out = List.filter (fun (tr : Fsm.transition) -> tr.Fsm.t_from = s.Fsm.sid) transitions in
      let always, conds =
        List.partition (fun (tr : Fsm.transition) -> tr.Fsm.t_guard = Fsm.G_always) out
      in
      if out = [] then
        add (error Ctrl ~code:"CTRL003" (State s.Fsm.sid) "state has no outgoing transition");
      if List.length always > 1 then
        add
          (error Ctrl ~code:"CTRL002" (State s.Fsm.sid) "%d unconditional transitions leave the state"
             (List.length always));
      if always <> [] && conds <> [] then
        add
          (error Ctrl ~code:"CTRL002" (State s.Fsm.sid)
             "unconditional and conditional transitions leave the same state");
      let guard_key (tr : Fsm.transition) =
        match tr.Fsm.t_guard with Fsm.G_cond (pol, nid) -> Some (pol, nid) | Fsm.G_always -> None
      in
      let rec dup_guards = function
        | [] -> ()
        | tr :: rest -> (
            match
              List.find_opt
                (fun o -> guard_key o = guard_key tr && o.Fsm.t_to <> tr.Fsm.t_to)
                rest
            with
            | Some o ->
                add
                  (error Ctrl ~code:"CTRL002" (State s.Fsm.sid)
                     "one guard leads to both state %d and state %d" tr.Fsm.t_to o.Fsm.t_to);
                dup_guards rest
            | None -> dup_guards rest)
      in
      dup_guards conds;
      let cond_nids =
        List.sort_uniq compare
          (List.filter_map
             (fun (tr : Fsm.transition) ->
               match tr.Fsm.t_guard with Fsm.G_cond (_, nid) -> Some nid | Fsm.G_always -> None)
             conds)
      in
      (match cond_nids with
      | _ :: _ :: _ ->
          add
            (error Ctrl ~code:"CTRL002" (State s.Fsm.sid)
               "transitions branch on %d different condition values" (List.length cond_nids))
      | [ nid ] when always = [] ->
          let has pol =
            List.exists
              (fun (tr : Fsm.transition) -> tr.Fsm.t_guard = Fsm.G_cond (pol, nid))
              conds
          in
          if not (has true && has false) then
            add
              (error Ctrl ~code:"CTRL004" (State s.Fsm.sid)
                 "branch on %%%d covers only the %s polarity" nid
                 (if has true then "true" else "false"))
      | _ -> ()))
    states;
  (* reachability over valid endpoints *)
  if is_state entry then begin
    let reached = Hashtbl.create 32 in
    let rec visit sid =
      if not (Hashtbl.mem reached sid) then begin
        Hashtbl.add reached sid ();
        List.iter
          (fun (tr : Fsm.transition) ->
            if tr.Fsm.t_from = sid && is_state tr.Fsm.t_to then visit tr.Fsm.t_to)
          transitions
      end
    in
    visit entry;
    List.iter
      (fun (s : Fsm.state) ->
        if not (Hashtbl.mem reached s.Fsm.sid) then
          add
            (warning Ctrl ~code:"CTRL001" (State s.Fsm.sid)
               "state (block %d, step %d) is unreachable from the entry" s.Fsm.block
               s.Fsm.step))
      states
  end
  else add (error Ctrl ~code:"CTRL005" (State entry) "entry is not a state of the machine");
  List.rev !ds

let check_fsm_t fsm =
  check_fsm ~states:(Fsm.states fsm) ~transitions:(Fsm.transitions fsm)
    ~entry:(Fsm.entry fsm)

let check_encoding ~states ~code =
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun (s : Fsm.state) ->
      let c = code s.Fsm.sid in
      match Hashtbl.find_opt seen c with
      | Some other ->
          Some
            (error Ctrl ~code:"CTRL006" (State s.Fsm.sid)
               "states %d and %d share code %d" other s.Fsm.sid c)
      | None ->
          Hashtbl.add seen c s.Fsm.sid;
          None)
    states

let check_next ~states ~transitions ~next =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  List.iter
    (fun (s : Fsm.state) ->
      let out = List.filter (fun (tr : Fsm.transition) -> tr.Fsm.t_from = s.Fsm.sid) transitions in
      let expect target conds =
        let got = next ~state:s.Fsm.sid ~conds in
        if got <> target then
          add
            (error Ctrl ~code:"CTRL007" (State s.Fsm.sid)
               "logic steps to state %d where the FSM transitions to state %d" got target)
      in
      match out with
      | [ { Fsm.t_guard = Fsm.G_always; t_to; _ } ] -> expect t_to []
      | _ ->
          List.iter
            (fun (tr : Fsm.transition) ->
              match tr.Fsm.t_guard with
              | Fsm.G_cond (pol, nid) ->
                  expect tr.Fsm.t_to [ ((s.Fsm.block, nid), pol) ]
              | Fsm.G_always -> ())
            out)
    states;
  List.rev !ds

let check_synth ctrl fsm =
  check_encoding ~states:(Fsm.states fsm) ~code:(Ctrl_synth.state_code ctrl)
  @ check_next ~states:(Fsm.states fsm) ~transitions:(Fsm.transitions fsm)
      ~next:(fun ~state ~conds -> Ctrl_synth.next_state ctrl ~state ~conds)

let check_microcode ~fields ~words =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let n_fields = List.length fields in
  Array.iteri
    (fun state word ->
      if List.length word <> n_fields then
        add
          (error Ctrl ~code:"CTRL008" (State state) "word has %d values for %d fields"
             (List.length word) n_fields)
      else
        List.iter2
          (fun (f : Microcode.field) v ->
            if not (Microcode.fits f v) then
              add
                (error Ctrl ~code:"CTRL008" (Field f.Microcode.fname)
                   "value %d of state %d does not fit %d bit%s" v state f.Microcode.fwidth
                   (if f.Microcode.fwidth = 1 then "" else "s")))
          fields word)
    words;
  if Array.length words > 1 then
    List.iteri
      (fun pos (f : Microcode.field) ->
        let values =
          Array.to_list words
          |> List.filter_map (fun w -> List.nth_opt w pos)
          |> List.sort_uniq compare
        in
        match values with
        | [ only ] ->
            add
              (info Ctrl ~code:"CTRL009" (Field f.Microcode.fname)
                 "field holds %d in every word (dead control field)" only)
        | _ -> ())
      fields;
  List.rev !ds
