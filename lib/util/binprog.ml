type var = int

let nodes_counter = Hls_obs.Trace.handle "binprog/nodes"

type constraint_ =
  | At_most of int * var list
  | Implies of var * var
  | Forbid of var * var

type t = {
  mutable count : int;
  mutable groups : var list list;  (* reversed order of addition *)
  mutable constraints : constraint_ list;
}

let create () = { count = 0; groups = []; constraints = [] }

let new_var t =
  let v = t.count in
  t.count <- t.count + 1;
  v

let n_vars t = t.count

let add_group t vars =
  if vars = [] then invalid_arg "Binprog.add_group: empty group";
  t.groups <- vars :: t.groups

let at_most t k vars = t.constraints <- At_most (k, vars) :: t.constraints

let implies t a b = t.constraints <- Implies (a, b) :: t.constraints

let forbid_pair t a b = t.constraints <- Forbid (a, b) :: t.constraints

(* assignment: 0 = false, 1 = true, -1 = undecided.

   Consistency of the current partial assignment is tracked
   incrementally: every constraint has a "violated" bit (At_most
   additionally a running count of its true variables), a global
   counter holds the number of violated constraints, and assignments
   go through [assign_var] which touches only the constraints the
   changed variable occurs in. A constraint is violated exactly when
     At_most (k, vars): #(v in vars with assign v = 1) > k
     Implies (a, b):    assign a = 1 && assign b = 0
     Forbid (a, b):     assign a = 1 && assign b = 1
   — the same predicates a full rescan would evaluate, so the search
   explores the identical tree and returns the identical assignment,
   just without re-walking the whole constraint list at every node. *)
let solve ?(objective = []) t =
  let groups = List.rev t.groups in
  (* variables not in any group are independent binary decisions *)
  let nvars = max 1 t.count in
  let is_free = Array.make nvars true in
  List.iter (fun g -> List.iter (fun v -> is_free.(v) <- false) g) groups;
  let free = List.filter (fun v -> is_free.(v)) (List.init t.count Fun.id) in
  let decision_sets = groups @ List.map (fun v -> [ v ]) free in
  let weight = Array.make nvars 0 in
  List.iter (fun (v, w) -> weight.(v) <- weight.(v) + w) objective;
  let assign = Array.make nvars (-1) in
  let constraints = Array.of_list t.constraints in
  let nc = Array.length constraints in
  let am_true = Array.make nc 0 in
  let violated = Array.make nc false in
  let n_violated = ref 0 in
  let set_viol ci b =
    if violated.(ci) <> b then begin
      violated.(ci) <- b;
      n_violated := !n_violated + (if b then 1 else -1)
    end
  in
  (* occurrence lists: one entry per textual occurrence, so an At_most
     row listing a variable twice counts it twice, as a rescan would *)
  let occ = Array.make nvars [] in
  Array.iteri
    (fun ci c ->
      match c with
      | At_most (k, vars) ->
          List.iter (fun v -> occ.(v) <- ci :: occ.(v)) vars;
          if k < 0 then set_viol ci true
      | Implies (a, b) ->
          occ.(a) <- ci :: occ.(a);
          if b <> a then occ.(b) <- ci :: occ.(b)
      | Forbid (a, b) ->
          occ.(a) <- ci :: occ.(a);
          if b <> a then occ.(b) <- ci :: occ.(b))
    constraints;
  let assign_var v x =
    let old = assign.(v) in
    if old <> x then begin
      assign.(v) <- x;
      List.iter
        (fun ci ->
          match constraints.(ci) with
          | At_most (k, _) ->
              if old = 1 then am_true.(ci) <- am_true.(ci) - 1;
              if x = 1 then am_true.(ci) <- am_true.(ci) + 1;
              set_viol ci (am_true.(ci) > k)
          | Implies (a, b) -> set_viol ci (assign.(a) = 1 && assign.(b) = 0)
          | Forbid (a, b) -> set_viol ci (assign.(a) = 1 && assign.(b) = 1))
        occ.(v)
    end
  in
  let best = ref None in
  let best_cost = ref max_int in
  let nodes = ref 0 in
  let budget = 10_000_000 in
  let rec search sets cost =
    incr nodes;
    if !nodes > budget then begin
      Hls_obs.Trace.add_to nodes_counter !nodes;
      invalid_arg "Binprog.solve: search budget exceeded"
    end;
    if cost >= !best_cost then ()
    else
      match sets with
      | [] ->
          if !n_violated = 0 then begin
            best_cost := cost;
            best := Some (Array.copy assign)
          end
      | set :: rest ->
          let choices =
            (* a group picks exactly one member; a free variable may also
               be left at 0 *)
            match set with
            | [ v ] when is_free.(v) -> [ None; Some v ]
            | _ -> List.map (fun v -> Some v) set
          in
          List.iter
            (fun choice ->
              List.iter (fun v -> assign_var v 0) set;
              (match choice with Some v -> assign_var v 1 | None -> ());
              if !n_violated = 0 then begin
                let added =
                  match choice with Some v -> weight.(v) | None -> 0
                in
                search rest (cost + added)
              end)
            choices;
          List.iter (fun v -> assign_var v (-1)) set
  in
  search decision_sets 0;
  Hls_obs.Trace.add_to nodes_counter !nodes;
  match !best with
  | Some a -> Some (fun v -> a.(v) = 1)
  | None -> None
