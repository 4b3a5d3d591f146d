open Hls_util

(* Candidate units: per class, as many instances as there are operations
   of that class (the trivial upper bound); symmetry is broken by
   requiring op i to use only units 0..i of its class, a standard
   reduction. *)
let allocate ?(op_cap = 14) cs =
  let ops = Array.of_list (Fu_alloc.collect cs) in
  let n = Array.length ops in
  if n > op_cap then None
  else begin
    let classes =
      Array.to_list ops
      |> List.map (fun (r : Fu_alloc.op_ref) -> r.Fu_alloc.cls)
      |> List.sort_uniq compare
    in
    let prog = Binprog.create () in
    (* unit identity: (class, index) *)
    let unit_vars = Hashtbl.create 16 in
    let used_var cls k =
      match Hashtbl.find_opt unit_vars (cls, k) with
      | Some v -> v
      | None ->
          let v = Binprog.new_var prog in
          Hashtbl.add unit_vars (cls, k) v;
          v
    in
    let ops_of_class cls =
      List.filter
        (fun i -> ops.(i).Fu_alloc.cls = cls)
        (List.init n Fun.id)
    in
    (* x.(i) = (unit index, var) list *)
    let x = Array.make n [] in
    List.iter
      (fun cls ->
        let members = ops_of_class cls in
        List.iteri
          (fun rank i ->
            x.(i) <-
              List.init (rank + 1) (fun k -> (k, Binprog.new_var prog)))
          members)
      classes;
    Array.iteri (fun _ vars -> if vars <> [] then Binprog.add_group prog (List.map snd vars)) x;
    (* conflicts: same (block, step) ops cannot share a unit *)
    List.iter
      (fun cls ->
        let members = ops_of_class cls in
        List.iter
          (fun i ->
            List.iter
              (fun j ->
                if i < j
                   && ops.(i).Fu_alloc.bid = ops.(j).Fu_alloc.bid
                   && ops.(i).Fu_alloc.step = ops.(j).Fu_alloc.step
                then
                  List.iter
                    (fun (ki, vi) ->
                      List.iter
                        (fun (kj, vj) ->
                          if ki = kj then Binprog.forbid_pair prog vi vj)
                        x.(j))
                    x.(i))
              members)
          members)
      classes;
    (* using a unit sets its indicator *)
    Array.iteri
      (fun i vars ->
        List.iter
          (fun (k, v) -> Binprog.implies prog v (used_var ops.(i).Fu_alloc.cls k))
          vars)
      x;
    let objective =
      Hashtbl.fold (fun _ v acc -> (v, 1) :: acc) unit_vars []
    in
    match Binprog.solve ~objective prog with
    | None -> None
    | Some value ->
        (* materialize instances *)
        let table = Hashtbl.create 16 in
        Array.iteri
          (fun i vars ->
            List.iter
              (fun (k, v) ->
                if value v then begin
                  let key = (ops.(i).Fu_alloc.cls, k) in
                  let cur = try Hashtbl.find table key with Not_found -> [] in
                  Hashtbl.replace table key (ops.(i) :: cur)
                end)
              vars)
          x;
        let instances =
          Hashtbl.fold (fun (cls, _) members acc -> (cls, List.rev members) :: acc) table []
          |> List.sort compare
          |> List.mapi (fun fu_id (fu_cls, ops) -> { Fu_alloc.fu_id; fu_cls; ops })
        in
        let lookup = Hashtbl.create 32 in
        List.iter
          (fun (inst : Fu_alloc.instance) ->
            List.iter
              (fun (r : Fu_alloc.op_ref) ->
                Hashtbl.replace lookup (r.Fu_alloc.bid, r.Fu_alloc.nid) inst.Fu_alloc.fu_id)
              inst.Fu_alloc.ops)
          instances;
        Some { Fu_alloc.instances; op_units = lookup }
  end

let min_units ?op_cap cs =
  match allocate ?op_cap cs with
  | Some t -> Some (Fu_alloc.n_units t)
  | None -> None
