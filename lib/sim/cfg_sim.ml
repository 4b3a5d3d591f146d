open Hls_cdfg

exception Sim_error of string

type term = T_goto of Cfg.bid | T_branch of Dfg.nid * Cfg.bid * Cfg.bid | T_halt

type block = {
  values : int array;  (** one slot per node, reused by every execution *)
  nodes : (unit -> unit) array;  (** in node (topological) order *)
  writes : (int * Dfg.nid) array;  (** (variable slot, written node), node order *)
  term : term;
}

type image = {
  slots : (string, int) Hashtbl.t;  (** variable name → slot *)
  names : string array;  (** slot → variable name, sorted: the [finals] order *)
  store : int array;  (** variable values; absent variables read 0 *)
  present : bool array;  (** set by an input or a committed write *)
  blocks : block array;
  entry : Cfg.bid;
}

(* A node reads its arguments from the block's value array
   ([Dfg.add] guarantees they precede it) and writes its own slot. *)
let compile_node store values slot id (node : Dfg.node) : unit -> unit =
  match (node.Dfg.op, Array.of_list node.Dfg.args) with
  | Op.Read v, _ ->
      let s = slot v in
      fun () -> values.(id) <- store.(s)
  | Op.Write _, [| a |] -> fun () -> values.(id) <- values.(a)
  | Op.Write _, _ -> fun () -> raise (Sim_error "malformed write")
  | op, args ->
      let ev = Op.compile_eval node.Dfg.ty op in
      let buf = Array.make (Array.length args) 0 in
      fun () ->
        for k = 0 to Array.length args - 1 do
          buf.(k) <- values.(args.(k))
        done;
        values.(id) <- ev buf

let compile cfg =
  let vars = ref [] in
  Cfg.iter
    (fun _ b ->
      Dfg.iter
        (fun _ node ->
          match node.Dfg.op with Op.Read v | Op.Write v -> vars := v :: !vars | _ -> ())
        b.Cfg.dfg)
    cfg;
  let names = Array.of_list (List.sort_uniq compare !vars) in
  let n = Array.length names in
  let slots = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace slots v i) names;
  let slot = Hashtbl.find slots in
  let store = Array.make (max n 1) 0 in
  let blocks =
    Array.init (Cfg.n_blocks cfg) (fun bid ->
        let g = Cfg.dfg cfg bid in
        let values = Array.make (max (Dfg.n_nodes g) 1) 0 in
        let nodes =
          Array.init (Dfg.n_nodes g) (fun id -> compile_node store values slot id (Dfg.node g id))
        in
        let writes =
          Array.of_list (List.map (fun (v, nid) -> (slot v, nid)) (Dfg.writes g))
        in
        let term =
          match Cfg.term cfg bid with
          | Cfg.Goto next -> T_goto next
          | Cfg.Branch (c, bt, bf) -> T_branch (c, bt, bf)
          | Cfg.Halt -> T_halt
        in
        { values; nodes; writes; term })
  in
  {
    slots;
    names;
    store;
    present = Array.make (max n 1) false;
    blocks;
    entry = Cfg.entry cfg;
  }

let run_image ?(fuel = 1_000_000) img ~inputs =
  let store = img.store and present = img.present in
  Array.fill store 0 (Array.length store) 0;
  Array.fill present 0 (Array.length present) false;
  (* inputs are stored raw and the last binding of a name wins; one
     naming no variable of the CDFG is reported back unchanged *)
  let extra = ref [] in
  List.iter
    (fun (v, raw) ->
      match Hashtbl.find_opt img.slots v with
      | Some s ->
          store.(s) <- raw;
          present.(s) <- true
      | None -> extra := (v, raw) :: List.remove_assoc v !extra)
    inputs;
  let fuel = ref fuel in
  let rec exec bid =
    decr fuel;
    if !fuel < 0 then raise (Sim_error "out of fuel (possible non-terminating loop)");
    let b = img.blocks.(bid) in
    let nodes = b.nodes in
    for i = 0 to Array.length nodes - 1 do
      nodes.(i) ()
    done;
    (* commit writes at block exit; later writes win *)
    Array.iter
      (fun (s, nid) ->
        store.(s) <- b.values.(nid);
        present.(s) <- true)
      b.writes;
    match b.term with
    | T_goto next -> exec next
    | T_branch (c, bt, bf) -> exec (if b.values.(c) <> 0 then bt else bf)
    | T_halt -> ()
  in
  (try exec img.entry with Division_by_zero -> raise (Sim_error "division by zero"));
  let finals = ref [] in
  for s = Array.length img.names - 1 downto 0 do
    if present.(s) then finals := (img.names.(s), store.(s)) :: !finals
  done;
  List.merge compare !finals (List.sort compare !extra)

let run ?fuel cfg ~inputs = run_image ?fuel (compile cfg) ~inputs
