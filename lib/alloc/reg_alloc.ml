open Hls_cdfg

type t = {
  temp_tracks : (Cfg.bid * Dfg.nid, int) Hashtbl.t;
  n_temps : int;
  var_reg : (string * string) list;  (* variable -> physical register name *)
  groups : string list list;
}

let run ?(share_variables = true) ?lifetimes ~ports ~outputs cs =
  let lt = match lifetimes with Some lt -> lt | None -> Lifetime.table cs in
  (* --- temporaries: left-edge per block, tracks shared across blocks --- *)
  let temp_tracks = Hashtbl.create 32 in
  let n_temps = ref 0 in
  List.iter
    (fun bid ->
      let assignment, tracks = Left_edge.assign (Lifetime.temps (Lifetime.values lt bid)) in
      List.iter (fun (nid, track) -> Hashtbl.replace temp_tracks (bid, nid) track) assignment;
      n_temps := max !n_temps tracks)
    (Cfg.block_ids (Hls_sched.Cfg_sched.cfg cs));
  (* --- variables: clique-share the non-conflicting ones --- *)
  let ix = Lifetime.interference lt ~outputs in
  let vars = Lifetime.vars ix in
  let is_port = Array.map (fun v -> List.mem v ports) vars in
  let groups =
    if share_variables then
      Clique.partition ~n:(Array.length vars) ~compatible:(fun i j ->
          (not is_port.(i)) && (not is_port.(j)) && not (Lifetime.conflict ix i j))
      |> List.map (List.map (fun i -> vars.(i)))
    else List.map (fun v -> [ v ]) (Array.to_list vars)
  in
  let var_reg =
    List.concat_map
      (fun group ->
        match group with
        | rep :: _ -> List.map (fun v -> (v, rep)) group
        | [] -> [])
      groups
  in
  { temp_tracks; n_temps = !n_temps; var_reg; groups }

let temp_track t bid nid = Hashtbl.find_opt t.temp_tracks (bid, nid)

let temp_register t bid nid =
  Option.map (fun k -> "tmp" ^ string_of_int k) (temp_track t bid nid)

let n_temp_registers t = t.n_temps

let register_of_var t v =
  match List.assoc_opt v t.var_reg with Some r -> r | None -> v

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
