open Hls_util

type bid = int

type term = Goto of bid | Branch of Dfg.nid * bid * bid | Halt

type block = { label : string; dfg : Dfg.t; term : term }

type t = {
  blocks : block Vec.t;
  mutable entry_bid : bid;
  trip_counts : (bid, int) Hashtbl.t;
}

let create () = { blocks = Vec.create (); entry_bid = 0; trip_counts = Hashtbl.create 8 }

let add_block t ?label dfg term =
  let bid = Vec.length t.blocks in
  let label = match label with Some l -> l | None -> Printf.sprintf "b%d" bid in
  ignore (Vec.push t.blocks { label; dfg; term });
  bid

let set_term t bid term =
  let b = Vec.get t.blocks bid in
  Vec.set t.blocks bid { b with term }

let set_entry t bid = t.entry_bid <- bid
let entry t = t.entry_bid
let n_blocks t = Vec.length t.blocks
let block t bid = Vec.get t.blocks bid
let dfg t bid = (block t bid).dfg
let term t bid = (block t bid).term
let iter f t = Vec.iteri (fun bid b -> f bid b) t.blocks
let block_ids t = List.init (n_blocks t) (fun i -> i)

let replace_dfg t bid dfg term =
  let b = Vec.get t.blocks bid in
  Vec.set t.blocks bid { b with dfg; term }

let set_trip_count t bid n = Hashtbl.replace t.trip_counts bid n

let trip_count t bid = Hashtbl.find_opt t.trip_counts bid

let succs_of_term = function
  | Goto b -> [ b ]
  | Branch (_, bt, bf) -> [ bt; bf ]
  | Halt -> []

let succs t bid = succs_of_term (term t bid)

let succs_table t = Array.init (n_blocks t) (fun bid -> succs t bid)

let validate t =
  let n = n_blocks t in
  if n = 0 then invalid_arg "Cfg.validate: empty graph";
  if t.entry_bid < 0 || t.entry_bid >= n then invalid_arg "Cfg.validate: bad entry";
  iter
    (fun bid b ->
      List.iter
        (fun target ->
          if target < 0 || target >= n then
            invalid_arg
              (Printf.sprintf "Cfg.validate: block %d branches to missing block %d" bid
                 target))
        (succs_of_term b.term);
      match b.term with
      | Branch (cond, _, _) ->
          if cond < 0 || cond >= Dfg.n_nodes b.dfg then
            invalid_arg
              (Printf.sprintf "Cfg.validate: block %d branch condition %%%d missing" bid
                 cond);
          if Dfg.ty b.dfg cond <> Hls_lang.Ast.Tbool then
            invalid_arg
              (Printf.sprintf "Cfg.validate: block %d branch condition is not bool" bid)
      | Goto _ | Halt -> ())
    t

let exec_frequencies t =
  let freq = Array.make (n_blocks t) 1 in
  List.iter
    (fun (header, members) ->
      match trip_count t header with
      | Some trips ->
          List.iter (fun bid -> freq.(bid) <- freq.(bid) * trips) (List.sort_uniq compare members)
      | None -> ())
    (Graph_algo.loops ~succs:(succs_table t) ~entry:t.entry_bid);
  freq

let term_to_string t = function
  | Goto b -> Printf.sprintf "goto %s" (block t b).label
  | Branch (c, bt, bf) ->
      Printf.sprintf "branch %%%d ? %s : %s" c (block t bt).label (block t bf).label
  | Halt -> "halt"

let pp ppf t =
  iter
    (fun bid b ->
      let trips =
        match trip_count t bid with
        | Some n -> Printf.sprintf "  -- trip count %d" n
        | None -> ""
      in
      Format.fprintf ppf "%s%s:%s@." b.label
        (if bid = t.entry_bid then " (entry)" else "")
        trips;
      Format.fprintf ppf "%a" Dfg.pp b.dfg;
      Format.fprintf ppf "  %s@." (term_to_string t b.term))
    t

let to_dot ?(name = "cfg") t =
  let d = Dot.create name in
  iter
    (fun bid b ->
      let ops = Dfg.n_nodes b.dfg in
      Dot.node d
        ~attrs:[ ("label", Printf.sprintf "%s\n%d ops" b.label ops); ("shape", "box") ]
        b.label;
      List.iter
        (fun target -> Dot.edge d b.label (block t target).label)
        (succs_of_term b.term);
      ignore bid)
    t;
  Dot.render d
