open Hls_util
open Hls_cdfg

(* ---- facts a guard may consult ---- *)

type env = { nonneg : Dfg.nid -> bool }

let no_facts _cfg _bid _nid = false

(* ---- the rule record ---- *)

type view = {
  out : Dfg.t;
  remap : int array;
  id : Dfg.nid;
  node : Dfg.node;
  mapped_args : Dfg.nid list;
}

type t = {
  name : string;
  descr : string;
  group : string;
  make : Dfg.t -> env -> (view -> Rewrite.decision option);
}

(* A rule whose matcher needs no per-block precomputation. *)
let stateless f = fun (_src : Dfg.t) (_env : env) -> f

(* ---- shared pattern helpers ---- *)

let frac_bits (ty : Hls_lang.Ast.ty) =
  match ty with Hls_lang.Ast.Tfix (_, f) -> f | Hls_lang.Ast.Tbool | Hls_lang.Ast.Tint _ -> 0

(* If [v] (a positive pattern) is exactly 2^m, return m. *)
let log2_exact v =
  if v <= 0 then None
  else begin
    let rec loop m p = if p = v then Some m else if p > v then None else loop (m + 1) (p * 2) in
    loop 0 1
  end

let const_of out nid = match Dfg.op out nid with Op.Const v -> Some v | _ -> None

(* Split a commutative argument pair into (non-const, const value). *)
let with_const out args =
  match args with
  | [ a; b ] -> (
      match (const_of out a, const_of out b) with
      | None, Some v -> Some (a, v)
      | Some v, None -> Some (b, v)
      | _ -> None)
  | _ -> None

let shift_amount_ty = Hls_lang.Ast.Tint 6

let emit_shift out ty x (op, k) =
  let amount = Dfg.add out (Op.Const k) [] shift_amount_ty in
  Rewrite.Subst (Dfg.add out op [ x; amount ] ty)

(* Multiplying by constant 2^(m - frac) is a shift by |m - frac|.
   Exactness: fixed multiply computes floor((a*c)/2^frac); with c = 2^m
   that is floor(a * 2^(m-frac)), exactly what the arithmetic shift
   computes in either direction. *)
let shift_for_mul ty c =
  match log2_exact c with
  | None -> None
  | Some m ->
      let k = m - frac_bits ty in
      if k = 0 then None (* multiplication by one; constant folding's job *)
      else if k > 0 then Some (Op.Shl, k)
      else Some (Op.Shr, -k)

(* A two-term shift/add (canonical signed digit) decomposition of a
   positive non-power-of-two constant pattern: c = 2^a + 2^b or
   c = 2^a - 2^b with a > b >= frac_bits. Returns (is_add, a, b). *)
let csd2 ty c =
  let f = frac_bits ty in
  if c <= 0 || log2_exact c <> None then None
  else begin
    let add_form =
      (* exactly two set bits *)
      let rec bits v i acc = if v = 0 then acc else bits (v lsr 1) (i + 1) (if v land 1 = 1 then i :: acc else acc) in
      match bits c 0 [] with
      | [ a; b ] when b >= f -> Some (true, a, b)
      | _ -> None
    in
    match add_form with
    | Some _ as r -> r
    | None ->
        (* c = 2^a - 2^b: scan borrow positions *)
        let rec scan b =
          if b > 61 || 1 lsl b > c then None
          else if b < f then scan (b + 1)
          else
            match log2_exact (c + (1 lsl b)) with
            | Some a when a > b && a <= 61 -> Some (false, a, b)
            | _ -> scan (b + 1)
        in
        scan 0
  end

(* ---- the rule catalogue ---- *)

(* Exactness of the shift/add chain: with c = 2^a ± 2^b and a, b >=
   frac_bits, the fixed multiply computes floor(x*c / 2^f) =
   x*2^(a-f) ± x*2^(b-f) with no truncation (both terms are integer
   multiples), and left shifts plus a wrapping add/sub compute the same
   value modulo 2^bits — bit-identical after the final wrap. *)

let mul_pow2_shift =
  {
    name = "mul-pow2-shift";
    group = "strength";
    descr = "x * 2^k  ->  arithmetic shift (exact in either direction)";
    make =
      stateless (fun v ->
          match v.node.Dfg.op with
          | Op.Mul -> (
              match with_const v.out v.mapped_args with
              | Some (x, c) -> (
                  match shift_for_mul v.node.Dfg.ty c with
                  | Some shift -> Some (emit_shift v.out v.node.Dfg.ty x shift)
                  | None -> None)
              | None -> None)
          | _ -> None);
  }

let mul_const_chain =
  {
    name = "mul-const-chain";
    group = "algebraic";
    descr = "x * c with c = 2^a +- 2^b  ->  two free shifts and one ALU op";
    make =
      stateless (fun v ->
          match v.node.Dfg.op with
          | Op.Mul -> (
              match with_const v.out v.mapped_args with
              | Some (x, c) -> (
                  match csd2 v.node.Dfg.ty c with
                  | Some (is_add, a, b) ->
                      let ty = v.node.Dfg.ty in
                      let f = frac_bits ty in
                      let term e =
                        if e = f then x else
                        match emit_shift v.out ty x (Op.Shl, e - f) with
                        | Rewrite.Subst nid -> nid
                        | _ -> assert false
                      in
                      let t1 = term a in
                      let t2 = term b in
                      Some
                        (Rewrite.Subst
                           (Dfg.add v.out (if is_add then Op.Add else Op.Sub) [ t1; t2 ] ty))
                  | None -> None)
              | None -> None)
          | _ -> None);
  }

(* Truncating division by 2^k agrees with the flooring arithmetic right
   shift only for a non-negative numerator; the guard consults the
   range-analysis fact oracle, so without proven facts the rule never
   fires. *)
let div_pow2_shift =
  {
    name = "div-pow2-shift";
    group = "algebraic";
    descr = "x / 2^k  ->  right shift, when x is proven non-negative";
    make =
      (fun _src env v ->
        match (v.node.Dfg.op, v.mapped_args, v.node.Dfg.args) with
        | Op.Div, [ x; c ], [ x_orig; _ ] -> (
            match const_of v.out c with
            | Some cv -> (
                match log2_exact cv with
                | Some m ->
                    let k = m - frac_bits v.node.Dfg.ty in
                    if k > 0 && env.nonneg x_orig then
                      Some (emit_shift v.out v.node.Dfg.ty x (Op.Shr, k))
                    else None
                | None -> None)
            | None -> None)
        | _ -> None);
  }

let add_one_incr =
  {
    name = "add-one-incr";
    group = "strength";
    descr = "x + 1  ->  increment";
    make =
      stateless (fun v ->
          match v.node.Dfg.op with
          | Op.Add -> (
              let one = Fixedpt.of_int (Op.fmt_of v.node.Dfg.ty) 1 in
              match with_const v.out v.mapped_args with
              | Some (x, c) when c = one ->
                  Some (Rewrite.Subst (Dfg.add v.out Op.Incr [ x ] v.node.Dfg.ty))
              | _ -> None)
          | _ -> None);
  }

let sub_one_decr =
  {
    name = "sub-one-decr";
    group = "strength";
    descr = "x - 1  ->  decrement";
    make =
      stateless (fun v ->
          match v.node.Dfg.op with
          | Op.Sub -> (
              let one = Fixedpt.of_int (Op.fmt_of v.node.Dfg.ty) 1 in
              match v.mapped_args with
              | [ x; c ] when const_of v.out c = Some one ->
                  Some (Rewrite.Subst (Dfg.add v.out Op.Decr [ x ] v.node.Dfg.ty))
              | _ -> None)
          | _ -> None);
  }

let cmp_zero_zdetect =
  {
    name = "cmp-zero-zdetect";
    group = "strength";
    descr = "x = 0  ->  free zero-detect";
    make =
      stateless (fun v ->
          match v.node.Dfg.op with
          | Op.Cmp Op.Ceq -> (
              match with_const v.out v.mapped_args with
              | Some (x, 0) ->
                  Some (Rewrite.Subst (Dfg.add v.out Op.Zdetect [ x ] Hls_lang.Ast.Tbool))
              | _ -> None)
          | _ -> None);
  }

(* Associativity license for rebalancing: exact for wrapping integer and
   fixed adds and integer multiplies, and for the bitwise ops; fixed
   multiplies truncate per step and must keep their order. *)
let assoc_ok (op : Op.t) (ty : Hls_lang.Ast.ty) =
  match (op, ty) with
  | Op.Add, (Hls_lang.Ast.Tint _ | Hls_lang.Ast.Tfix _) -> true
  | Op.Mul, Hls_lang.Ast.Tint _ -> true
  | (Op.And | Op.Or | Op.Xor), _ -> true
  | _ -> false

let add_rebalance =
  {
    name = "add-rebalance";
    group = "balance";
    descr = "rebalance associative operator chains into trees (height reduction)";
    make =
      (fun src _env ->
        let users = Dfg.users src in
        let node_op id = (Dfg.node src id).Dfg.op in
        let node_ty id = (Dfg.node src id).Dfg.ty in
        (* internal chain node: same associative op/ty as its unique user *)
        let internal id =
          assoc_ok (node_op id) (node_ty id)
          && (match users.(id) with
             | [ u ] -> node_op u = node_op id && node_ty u = node_ty id
             | _ -> false)
        in
        let rec leaves id acc =
          (* pre-order, left to right *)
          List.fold_left
            (fun acc a -> if internal a then leaves a acc else a :: acc)
            acc (Dfg.args src id)
        in
        let is_root id =
          assoc_ok (node_op id) (node_ty id)
          && (not (internal id))
          && List.exists internal (Dfg.args src id)
        in
        fun v ->
          if internal v.id then Some Rewrite.Drop
          else if is_root v.id then begin
            let op = node_op v.id and ty = node_ty v.id in
            let old_leaves = List.rev (leaves v.id []) in
            let mapped = List.map (fun l -> v.remap.(l)) old_leaves in
            let rec pairup = function
              | [] -> []
              | [ x ] -> [ x ]
              | a :: b :: rest -> Dfg.add v.out op [ a; b ] ty :: pairup rest
            in
            let rec reduce = function [ x ] -> x | xs -> reduce (pairup xs) in
            Some (Rewrite.Subst (reduce mapped))
          end
          else None);
  }

let cse_node =
  {
    name = "cse-node";
    group = "share";
    descr = "share structurally identical expressions within a block";
    make =
      (fun _src _env ->
        let table : (string, Dfg.nid) Hashtbl.t = Hashtbl.create 16 in
        fun v ->
          match v.node.Dfg.op with
          | Op.Write _ -> None
          | op ->
              let key =
                Printf.sprintf "%s(%s):%s" (Op.to_string op)
                  (String.concat "," (List.map string_of_int v.mapped_args))
                  (Hls_lang.Ast.ty_to_string v.node.Dfg.ty)
              in
              (match Hashtbl.find_opt table key with
              | Some nid -> Some (Rewrite.Subst nid)
              | None ->
                  let nid = Dfg.add v.out op v.mapped_args v.node.Dfg.ty in
                  Hashtbl.add table key nid;
                  Some (Rewrite.Subst nid)));
  }

let all =
  [
    mul_pow2_shift;
    add_one_incr;
    sub_one_decr;
    cmp_zero_zdetect;
    mul_const_chain;
    div_pow2_shift;
    add_rebalance;
    cse_node;
  ]

let groups = [ "strength"; "algebraic"; "balance"; "share" ]

let group g = List.filter (fun r -> r.group = g) all

(* Candidate generators for cost-guided extraction: rules whose
   right-hand sides are genuine alternatives a cost model should pick
   between (or strictly free replacements the ILP accepts trivially). *)
let extraction_rules = [ mul_pow2_shift; mul_const_chain; div_pow2_shift ]

(* ---- greedy application ---- *)

let run_rules ?(nonneg = no_facts) rules cfg =
  (* The fact oracle is recomputed per application (rewrites renumber
     node ids) and forced lazily: blocks already rewritten in this very
     application were rewritten semantics-preservingly, so facts about
     the still-untouched blocks remain valid. *)
  let oracle = lazy (nonneg cfg) in
  Rewrite.rewrite_all cfg ~rule:(fun bid ->
      let src = Cfg.dfg cfg bid in
      let env = { nonneg = (fun nid -> (Lazy.force oracle) bid nid) } in
      let fns = List.map (fun r -> r.make src env) rules in
      fun ~out ~remap id node ~mapped_args ->
        let v = { out; remap; id; node; mapped_args } in
        let rec first = function
          | [] -> Rewrite.Copy
          | f :: rest -> ( match f v with Some d -> d | None -> first rest)
        in
        first fns)

(* ---- cross-block common-subexpression sharing ---- *)

(* If block B's unique predecessor is A (and B is not the entry), every
   execution of B immediately follows a full execution of A, so B's
   entry store equals A's exit store. An expression op(reads/consts)
   computed in A whose read variables A never writes, and whose value
   A's last write to some variable w commits, is therefore available in
   B as a free Read w: B's recomputation over the same reads/consts
   observes A-exit values (reads see block-entry values) and computes
   exactly the value stored in w. Trap behavior is preserved — A already
   evaluated the identical operator on identical operands first. *)

let pure_op (op : Op.t) =
  match op with Op.Const _ | Op.Read _ | Op.Write _ -> false | _ -> true

let cse_global cfg =
  let entry = Cfg.entry cfg in
  let preds : (Cfg.bid, Cfg.bid list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = Option.value (Hashtbl.find_opt preds s) ~default:[] in
          if not (List.mem b cur) then Hashtbl.replace preds s (b :: cur))
        (Cfg.succs cfg b))
    (Cfg.block_ids cfg);
  (* stable description of an available expression's operand: a variable
     unwritten in the defining block, or a constant *)
  let describe g written nid =
    let n = Dfg.node g nid in
    match n.Dfg.op with
    | Op.Read v when not (Hashtbl.mem written v) ->
        Some (Printf.sprintf "r:%s:%s" v (Hls_lang.Ast.ty_to_string n.Dfg.ty))
    | Op.Const c -> Some (Printf.sprintf "c:%d:%s" c (Hls_lang.Ast.ty_to_string n.Dfg.ty))
    | _ -> None
  in
  let expr_key g written nid =
    let n = Dfg.node g nid in
    if not (pure_op n.Dfg.op) then None
    else
      let args = List.map (describe g written) n.Dfg.args in
      if List.for_all Option.is_some args then
        Some
          (Printf.sprintf "%s(%s):%s" (Op.to_string n.Dfg.op)
             (String.concat "," (List.map Option.get args))
             (Hls_lang.Ast.ty_to_string n.Dfg.ty))
      else None
  in
  List.fold_left
    (fun acc b ->
      if b = entry then acc
      else
        match Hashtbl.find_opt preds b with
        | Some [ a ] when a <> b ->
            let ga = Cfg.dfg cfg a in
            let written_a = Hashtbl.create 8 in
            List.iter (fun (v, _) -> Hashtbl.replace written_a v ()) (Dfg.writes ga);
            (* last write per variable wins (block semantics) *)
            let last_write : (string, Dfg.nid) Hashtbl.t = Hashtbl.create 8 in
            List.iter (fun (v, nid) -> Hashtbl.replace last_write v nid) (Dfg.writes ga);
            let avail : (string, string * Hls_lang.Ast.ty) Hashtbl.t = Hashtbl.create 8 in
            Hashtbl.iter
              (fun w wid ->
                match Dfg.args ga wid with
                | [ value ] -> (
                    match expr_key ga written_a value with
                    | Some key ->
                        if not (Hashtbl.mem avail key) then
                          Hashtbl.replace avail key (w, (Dfg.node ga wid).Dfg.ty)
                    | None -> ())
                | _ -> ())
              last_write;
            if Hashtbl.length avail = 0 then acc
            else begin
              let gb = Cfg.dfg cfg b in
              let reads : (string, Dfg.nid) Hashtbl.t = Hashtbl.create 4 in
              let rule : Rewrite.rule =
               fun ~out ~remap:_ id node ~mapped_args:_ ->
                match expr_key gb written_a id with
                | Some key -> (
                    match Hashtbl.find_opt avail key with
                    | Some (w, wty) when wty = node.Dfg.ty ->
                        let rd =
                          match Hashtbl.find_opt reads w with
                          | Some nid -> nid
                          | None ->
                              let nid = Dfg.add out (Op.Read w) [] node.Dfg.ty in
                              Hashtbl.add reads w nid;
                              nid
                        in
                        Rewrite.Subst rd
                    | _ -> Rewrite.Copy)
                | None -> Rewrite.Copy
              in
              Rewrite.rewrite_block cfg b ~rule || acc
            end
        | _ -> acc)
    false (Cfg.block_ids cfg)
