open Hls_cdfg

(* temporary track names, interned once per process for the usual
   track counts *)
let temp_names = Array.init 64 (fun k -> "tmp" ^ string_of_int k)
let temp_name k = if k < Array.length temp_names then temp_names.(k) else "tmp" ^ string_of_int k

(* Registers are ints: [names.(r)] is register [r]'s name. Equal names
   are one register. *)
type t = {
  temp_tracks : int array array;  (* per block, per node: track, or -1 *)
  n_temps : int;
  vars : string array;  (* ascending; a variable's id is its index *)
  var_reg : int array;  (* variable id -> register *)
  temp_reg : int array;  (* track -> register *)
  names : string array;
  groups : string list list;
}

let run ?(share_variables = true) ?lifetimes ~ports ~outputs cs =
  let lt = match lifetimes with Some lt -> lt | None -> Lifetime.table cs in
  let cfg = Hls_sched.Cfg_sched.cfg cs in
  (* --- temporaries: left-edge per block, tracks shared across blocks --- *)
  let n_temps = ref 0 in
  let temp_tracks =
    Array.init (Cfg.n_blocks cfg) (fun bid ->
        let tracks = Array.make (Dfg.n_nodes (Cfg.dfg cfg bid)) (-1) in
        let assignment, n = Left_edge.assign (Lifetime.temps (Lifetime.values lt bid)) in
        List.iter (fun (nid, track) -> tracks.(nid) <- track) assignment;
        n_temps := Int.max !n_temps n;
        tracks)
  in
  (* --- variables: clique-share the non-conflicting ones --- *)
  let ix = Lifetime.interference lt ~outputs in
  let vars = Lifetime.vars ix in
  let nv = Array.length vars in
  let is_port = Array.make nv false in
  let facts = Lifetime.facts lt in
  List.iter (fun p -> Option.iter (fun i -> is_port.(i) <- true) (Cfg_facts.find_var facts p)) ports;
  let groups =
    if share_variables then
      Clique.partition ~n:nv ~compatible:(fun i j ->
          (not is_port.(i)) && (not is_port.(j)) && not (Lifetime.conflict ix i j))
    else List.init nv (fun i -> [ i ])
  in
  (* --- register names: a group's register is named after its first
     member; temporary track [k] is [tmpk], the group register of that
     name if there is one --- *)
  let n_groups = List.length groups in
  let names = Array.make (n_groups + !n_temps) "" in
  let var_reg = Array.make nv (-1) in
  List.iteri
    (fun r group ->
      names.(r) <- vars.(List.hd group);
      List.iter (fun i -> var_reg.(i) <- r) group)
    groups;
  let n_names = ref n_groups in
  let temp_reg =
    Array.init !n_temps (fun k ->
        let name = temp_name k in
        match Cfg_facts.index_in vars name with
        | Some i when String.equal names.(var_reg.(i)) name -> var_reg.(i)
        | _ ->
            names.(!n_names) <- name;
            incr n_names;
            !n_names - 1)
  in
  {
    temp_tracks;
    n_temps = !n_temps;
    vars;
    var_reg;
    temp_reg;
    names = Array.sub names 0 !n_names;
    groups = List.map (List.map (fun i -> vars.(i))) groups;
  }

let temp_track t bid nid =
  let k = t.temp_tracks.(bid).(nid) in
  if k < 0 then None else Some k

let temp_register_id t bid nid =
  let k = t.temp_tracks.(bid).(nid) in
  if k < 0 then -1 else t.temp_reg.(k)

let var_register t i = t.var_reg.(i)

let register_of_var t v =
  match Cfg_facts.index_in t.vars v with Some i -> t.names.(t.var_reg.(i)) | None -> v

let n_names t = Array.length t.names
let name t r = t.names.(r)

let find_register t name =
  let rec go r =
    if r >= Array.length t.names then -1 else if String.equal t.names.(r) name then r else go (r + 1)
  in
  go 0

let n_temp_registers t = t.n_temps

let variable_groups t = t.groups

let n_variable_registers t = List.length t.groups

let n_registers t = t.n_temps + List.length t.groups

let pp ppf t =
  Format.fprintf ppf "temp registers: %d@." t.n_temps;
  List.iter
    (fun group ->
      Format.fprintf ppf "reg %s <- {%s}@."
        (match group with r :: _ -> r | [] -> "?")
        (String.concat ", " group))
    t.groups
