open Hls_util

type nid = int

type node = { op : Op.t; args : nid list; ty : Hls_lang.Ast.ty }

type t = { nodes : node Vec.t }

let create () = { nodes = Vec.create () }

let n_nodes g = Vec.length g.nodes

let add g op args ty =
  let id = Vec.length g.nodes in
  if List.exists (fun a -> a < 0 || a >= id) args then
    invalid_arg "Dfg.add: argument ids must precede the new node";
  if List.length args <> Op.arity op then
    invalid_arg
      (Printf.sprintf "Dfg.add: %s expects %d arguments, got %d" (Op.to_string op)
         (Op.arity op) (List.length args));
  ignore (Vec.push g.nodes { op; args; ty });
  id

let node g id = Vec.get g.nodes id
let op g id = (node g id).op
let args g id = (node g id).args
let ty g id = (node g id).ty

let iter f g = Vec.iteri (fun id n -> f id n) g.nodes

let fold f init g =
  let acc = ref init in
  iter (fun id n -> acc := f !acc id n) g;
  !acc

let node_ids g = List.init (n_nodes g) (fun i -> i)

let users g =
  let table = Array.make (n_nodes g) [] in
  iter (fun id n -> List.iter (fun a -> table.(a) <- id :: table.(a)) n.args) g;
  Array.map List.rev table

let is_const g id = match op g id with Op.Const _ -> true | _ -> false

let is_entry_value g id =
  match op g id with Op.Const _ | Op.Read _ -> true | _ -> false

let fu_class_of g id =
  let n = node g id in
  match n.op with
  | Op.Shl | Op.Shr -> (
      match n.args with
      | [ _; amount ] when is_const g amount -> Op.C_free
      | _ -> Op.C_shift)
  | Op.Write _ -> (
      match n.args with
      | [ src ] when is_entry_value g src -> Op.C_alu (* register move *)
      | _ -> Op.C_none)
  | op -> Op.base_class op

let occupies_step g id = Op.occupies (fu_class_of g id)

let compute_ops g =
  fold (fun acc id _ -> if occupies_step g id then id :: acc else acc) [] g
  |> List.rev

let reads g =
  fold
    (fun acc id n -> match n.op with Op.Read v -> (v, id) :: acc | _ -> acc)
    [] g
  |> List.rev

let writes g =
  fold
    (fun acc id n -> match n.op with Op.Write v -> (v, id) :: acc | _ -> acc)
    [] g
  |> List.rev

let path_length g =
  let n = n_nodes g in
  let table = users g in
  let pl = Array.make n 0 in
  for id = n - 1 downto 0 do
    let succ_max = List.fold_left (fun acc u -> max acc pl.(u)) 0 table.(id) in
    pl.(id) <- (if occupies_step g id then 1 else 0) + succ_max
  done;
  pl

let depth g =
  let n = n_nodes g in
  let d = Array.make n 0 in
  for id = 0 to n - 1 do
    let pred_max = List.fold_left (fun acc a -> max acc d.(a)) 0 (args g id) in
    d.(id) <- (if occupies_step g id then 1 else 0) + pred_max
  done;
  d

let pp ppf g =
  iter
    (fun id n ->
      Format.fprintf ppf "%%%d = %s%s : %s@." id (Op.to_string n.op)
        (match n.args with
        | [] -> ""
        | args -> "(" ^ String.concat ", " (List.map (Printf.sprintf "%%%d") args) ^ ")")
        (Hls_lang.Ast.ty_to_string n.ty))
    g

let to_dot ?(name = "dfg") g =
  let d = Dot.create name in
  iter
    (fun id n ->
      let label = Printf.sprintf "%d: %s" id (Op.to_string n.op) in
      Dot.node d ~attrs:[ ("label", label) ] (string_of_int id);
      List.iter (fun a -> Dot.edge d (string_of_int a) (string_of_int id)) n.args)
    g;
  Dot.render d
