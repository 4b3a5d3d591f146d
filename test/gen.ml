(* Shared generators for the property-based tests: random DAGs for the
   schedulers, random straight-line/structured programs for semantic-
   preservation checks, random intervals for register allocation; and
   the whole-CFG scheduling helper the suites share. *)

open Hls_lang

let int_ty = Ast.Tint 16

(* ---- random DFGs (single block, integer ops, no division) ---- *)

let dfg_of_seed ?(max_ops = 14) seed =
  let rng = Random.State.make [| seed |] in
  let g = Hls_cdfg.Dfg.create () in
  let a = Hls_cdfg.Dfg.add g (Hls_cdfg.Op.Read "a") [] int_ty in
  let b = Hls_cdfg.Dfg.add g (Hls_cdfg.Op.Read "b") [] int_ty in
  let values = ref [ a; b ] in
  let pick () = List.nth !values (Random.State.int rng (List.length !values)) in
  let n_ops = 2 + Random.State.int rng (max_ops - 1) in
  for _ = 1 to n_ops do
    let x = pick () and y = pick () in
    let op =
      match Random.State.int rng 5 with
      | 0 -> Hls_cdfg.Op.Add
      | 1 -> Hls_cdfg.Op.Sub
      | 2 -> Hls_cdfg.Op.Mul
      | 3 -> Hls_cdfg.Op.And
      | _ -> Hls_cdfg.Op.Xor
    in
    let nid = Hls_cdfg.Dfg.add g op [ x; y ] int_ty in
    values := nid :: !values
  done;
  (* write the most recent value so the graph has a sink *)
  (match !values with
  | last :: _ -> ignore (Hls_cdfg.Dfg.add g (Hls_cdfg.Op.Write "out") [ last ] int_ty)
  | [] -> ());
  g

let dfg_arbitrary =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "dfg seed %d" seed)
    QCheck.Gen.(0 -- 10_000)

(* ---- random structured programs ---- *)

(* Expression over declared variables; integer-only, division-free so no
   runtime traps, bounded depth. *)
let rec gen_expr rng vars depth : Ast.expr =
  if depth = 0 || Random.State.int rng 3 = 0 then
    match Random.State.int rng 2 with
    | 0 -> Builder.v (List.nth vars (Random.State.int rng (List.length vars)))
    | _ -> Builder.int (Random.State.int rng 64)
  else begin
    let a = gen_expr rng vars (depth - 1) in
    let b = gen_expr rng vars (depth - 1) in
    match Random.State.int rng 6 with
    | 0 -> Builder.(a + b)
    | 1 -> Builder.(a - b)
    | 2 -> Builder.(a * b)
    | 3 -> Builder.(a && b)
    | 4 -> Builder.xor a b
    | _ -> Builder.(a + int 1)
  end

let gen_cond rng vars depth : Ast.expr =
  let a = gen_expr rng vars depth in
  let b = gen_expr rng vars depth in
  match Random.State.int rng 4 with
  | 0 -> Builder.(a < b)
  | 1 -> Builder.(a > b)
  | 2 -> Builder.(a = b)
  | _ -> Builder.(a <> b)

(* [depth] picks a distinct counter variable per loop-nesting level so
   nested counted loops never share a counter (which would not
   terminate). *)
let rec gen_stmts rng vars budget depth : Ast.stmt list =
  if budget <= 0 || depth > 3 then []
  else begin
    let target = List.nth vars (Random.State.int rng (List.length vars)) in
    let stmt, cost =
      match Random.State.int rng 8 with
      | 0 | 1 | 2 | 3 -> (Builder.( <-- ) target (gen_expr rng vars 3), 1)
      | 4 | 5 ->
          let half = budget / 2 in
          let then_ = gen_stmts rng vars half depth in
          let else_ =
            if Random.State.bool rng then gen_stmts rng vars half depth else []
          in
          ( Builder.if_ (gen_cond rng vars 2)
              (if then_ = [] then [ Builder.( <-- ) target (Builder.int 1) ] else then_)
              else_,
            2 )
      | 6 ->
          let counter = Printf.sprintf "k%d" depth in
          let body = gen_stmts rng vars (budget / 2) (depth + 1) in
          ( Builder.for_ counter ~from:(Builder.int 0)
              ~to_:(Builder.int (Random.State.int rng 4))
              (if body = [] then
                 [ Builder.( <-- ) target Builder.(v target + int 1) ]
               else body),
            3 )
      | _ -> (Builder.( <-- ) target (gen_expr rng vars 2), 1)
    in
    stmt :: gen_stmts rng vars (budget - cost) depth
  end

let program_of_seed ?(budget = 8) seed : Ast.program =
  let rng = Random.State.make [| seed |] in
  let vars = [ "p"; "q"; "r" ] in
  let body0 = gen_stmts rng vars budget 0 in
  let body =
    if body0 = [] then [ Builder.( <-- ) "p" Builder.(v "a" + v "b") ] else body0
  in
  Builder.program "randprog"
    ~ports:
      [
        Builder.in_ "a" int_ty;
        Builder.in_ "b" int_ty;
        Builder.out "o1" int_ty;
        Builder.out "o2" int_ty;
      ]
    ~vars:
      [
        Builder.local "p" int_ty;
        Builder.local "q" int_ty;
        Builder.local "r" int_ty;
        Builder.local "k0" (Ast.Tint 8);
        Builder.local "k1" (Ast.Tint 8);
        Builder.local "k2" (Ast.Tint 8);
        Builder.local "k3" (Ast.Tint 8);
      ]
    ([
       Builder.( <-- ) "p" (Builder.v "a");
       Builder.( <-- ) "q" (Builder.v "b");
       Builder.( <-- ) "r" Builder.(v "a" - v "b");
     ]
    @ body
    @ [
        Builder.( <-- ) "o1" Builder.(v "p" + v "q");
        Builder.( <-- ) "o2" (Builder.v "r");
      ])

let program_arbitrary =
  QCheck.make
    ~print:(fun seed ->
      Printf.sprintf "program seed %d:\n%s" seed
        (Pretty.program_to_string (program_of_seed seed)))
    QCheck.Gen.(0 -- 5_000)

(* ---- random intervals ---- *)

let intervals_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 20 in
  List.init n (fun i ->
      let lo = Random.State.int rng 20 in
      let hi = lo + Random.State.int rng 10 in
      (i, Hls_util.Interval.make lo hi))

let intervals_arbitrary =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "intervals seed %d" seed)
    QCheck.Gen.(0 -- 10_000)

(* ---- scheduling every block of a CFG with one kernel ---- *)

let schedule_cfg kernel cfg =
  Hls_sched.Cfg_sched.init cfg (fun bid ->
      Hls_sched.Depgraph.block kernel (Hls_cdfg.Cfg.dfg cfg bid))
