open Hls_cdfg

type t = {
  name : string;
  descr : string;
  run : outputs:string list -> Cfg.t -> Cfg.t * bool;
}

let in_place f ~outputs cfg =
  ignore outputs;
  let changed = f cfg in
  (cfg, changed)

let const_fold = { name = "const-fold"; descr = "constant folding and algebraic identities"; run = in_place Const_fold.run }

let cse = { name = "cse"; descr = "common subexpression elimination"; run = in_place Cse.run }

let forward = { name = "forward"; descr = "storage forwarding within blocks"; run = in_place Forward.run }

let strength =
  { name = "strength"; descr = "strength reduction (mul-by-2^k to shift, +-1 to incr/decr, =0 to zero-detect)";
    run = in_place (Rules.run_rules (Rules.group "strength")) }

let dce =
  { name = "dce"; descr = "dead code and dead write elimination";
    run = (fun ~outputs cfg -> (cfg, Dead_code.run ~outputs cfg)) }

let tree_height =
  { name = "tree-height"; descr = "tree height reduction of associative chains";
    run = in_place (Rules.run_rules [ Rules.add_rebalance ]) }

let loop_recode =
  { name = "loop-recode"; descr = "counter recoding to wraparound width and free zero-detect exit";
    run = (fun ~outputs cfg -> (cfg, Loop_recode.run ~protected:outputs cfg)) }

let unroll =
  { name = "unroll"; descr = "unrolling of counted loops";
    run = (fun ~outputs:_ cfg -> Unroll.unroll_all cfg) }

let merge =
  { name = "merge-blocks"; descr = "straight-line block merging and unreachable-block pruning";
    run = (fun ~outputs:_ cfg -> Clean_cfg.merge cfg) }

let prune =
  { name = "prune"; descr = "unreachable-block pruning";
    run = (fun ~outputs:_ cfg -> Clean_cfg.prune cfg) }

let if_convert =
  { name = "if-convert"; descr = "speculative mux conversion of small branch diamonds";
    run = (fun ~outputs:_ cfg -> If_convert.run cfg) }

let cse_global =
  { name = "cse-global"; descr = "cross-block sharing of expressions committed by the unique predecessor";
    run = in_place Rules.cse_global }

(* Declarative rules, exposed individually (rule:NAME) and as groups
   (rules:GROUP), parameterized by the fact oracle that guards e.g. the
   division rewrite. *)
let rule_pass ~nonneg (r : Rules.t) =
  { name = "rule:" ^ r.Rules.name; descr = r.Rules.descr;
    run = in_place (Rules.run_rules ~nonneg [ r ]) }

let group_descr = function
  | "strength" -> "strength-reduction rewrite rules"
  | "algebraic" -> "algebraic mul/div-by-constant decomposition rules"
  | "balance" -> "associative chain rebalancing rules"
  | "share" -> "expression sharing rules"
  | g -> g ^ " rewrite rules"

let group_pass ~nonneg g =
  { name = "rules:" ^ g; descr = group_descr g;
    run = in_place (Rules.run_rules ~nonneg (Rules.group g)) }

let static =
  [ const_fold; cse; forward; strength; dce; tree_height; loop_recode; unroll; merge;
    prune; if_convert; cse_global ]

let all_with ~nonneg =
  static
  @ List.map (group_pass ~nonneg) Rules.groups
  @ List.map (rule_pass ~nonneg) Rules.all

let all = all_with ~nonneg:Rules.no_facts

(* ---- lookup with a typed error ---- *)

type find_error = { unknown : string; suggestion : string option; known : string list }

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let row = Array.init (lb + 1) Fun.id in
  for i = 1 to la do
    let diag = ref row.(0) in
    row.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      let v = min (min (row.(j) + 1) (row.(j - 1) + 1)) (!diag + cost) in
      diag := row.(j);
      row.(j) <- v
    done
  done;
  row.(lb)

let find_in pool name =
  match List.find_opt (fun p -> p.name = name) pool with
  | Some p -> Ok p
  | None ->
      let known = List.map (fun p -> p.name) pool in
      let suggestion =
        List.fold_left
          (fun best k ->
            let d = levenshtein name k in
            if d <= max 2 (String.length name / 2)
               && (match best with Some (_, bd) -> d < bd | None -> true)
            then Some (k, d)
            else best)
          None known
        |> Option.map fst
      in
      Error { unknown = name; suggestion; known }

let find name = find_in all name

let find_error_to_string e =
  Printf.sprintf "unknown pass %S%s (known passes: %s)" e.unknown
    (match e.suggestion with Some s -> Printf.sprintf " (did you mean %S?)" s | None -> "")
    (String.concat ", " e.known)

let find_exn ?(pool = all) name =
  match find_in pool name with Ok p -> p | Error e -> invalid_arg (find_error_to_string e)

(* ---- pipelines ---- *)

let run_pipeline ~outputs passes cfg =
  let max_rounds = 16 in
  let rec go cfg round =
    if round >= max_rounds then cfg
    else begin
      let cfg, changed =
        List.fold_left
          (fun (cfg, changed) pass ->
            let cfg, c = pass.run ~outputs cfg in
            (cfg, changed || c))
          (cfg, false) passes
      in
      if changed then go cfg (round + 1) else cfg
    end
  in
  go cfg 0

let standard = [ forward; const_fold; cse; strength; dce ]

let aggressive = standard @ [ loop_recode; unroll; merge; tree_height; prune ]

(* ---- pipeline specs ---- *)

type objective = Extract.objective

type pipeline = { passes : string list; fold_facts : bool; extract : objective option }

let pass_names ps = List.map (fun p -> p.name) ps

let standard_names = pass_names standard
let aggressive_names = pass_names aggressive
let extract_names = aggressive_names @ [ "cse-global" ]

let named_pipelines =
  [
    ("none", { passes = []; fold_facts = false; extract = None });
    ("standard", { passes = standard_names; fold_facts = false; extract = None });
    ("aggressive", { passes = aggressive_names; fold_facts = true; extract = None });
    ("extract", { passes = extract_names; fold_facts = true; extract = Some `Area });
  ]

let default_pipeline = List.assoc "standard" named_pipelines

let pipeline_of_string s =
  let ( let* ) r f = Result.bind r f in
  match List.map String.trim (String.split_on_char '+' (String.trim s)) with
  | [] -> Error "empty pipeline spec"
  | base :: mods ->
      let* spec =
        match List.assoc_opt base named_pipelines with
        | Some spec -> Ok spec
        | None ->
            if base = "" then Error "empty pipeline spec (spell no passes as \"none\")"
            else begin
              let names =
                List.map String.trim (String.split_on_char ',' base)
                |> List.filter (fun n -> n <> "")
              in
              let rec check = function
                | [] -> Ok { passes = names; fold_facts = false; extract = None }
                | n :: rest -> (
                    match find n with
                    | Ok _ -> check rest
                    | Error e -> Error (find_error_to_string e))
              in
              check names
            end
      in
      List.fold_left
        (fun acc m ->
          let* spec = acc in
          if m = "facts" then Ok { spec with fold_facts = true }
          else if String.length m > 8 && String.sub m 0 8 = "extract:" then
            let o = String.sub m 8 (String.length m - 8) in
            match Extract.objective_of_string o with
            | Some o -> Ok { spec with extract = Some o }
            | None -> Error (Printf.sprintf "unknown extraction objective %S (expected area or latency)" o)
          else
            Error
              (Printf.sprintf
                 "unknown pipeline modifier %S (expected \"facts\" or \"extract:area|latency\")" m))
        (Ok spec) mods

let pipeline_to_string spec =
  match List.find_opt (fun (_, s) -> s = spec) named_pipelines with
  | Some (n, _) -> n
  | None ->
      (* a named base may be used when modifiers can only add on top *)
      let compatible base =
        base.passes = spec.passes
        && ((not base.fold_facts) || spec.fold_facts)
        && (match base.extract with None -> true | Some o -> spec.extract = Some o)
      in
      let base, base_spec =
        match List.find_opt (fun (_, s) -> compatible s) named_pipelines with
        | Some (n, s) -> (n, s)
        | None ->
            ( String.concat "," spec.passes,
              { passes = spec.passes; fold_facts = false; extract = None } )
      in
      let mods =
        (if spec.fold_facts && not base_spec.fold_facts then [ "facts" ] else [])
        @
        match spec.extract with
        | Some o when base_spec.extract <> Some o ->
            [ "extract:" ^ Extract.objective_to_string o ]
        | _ -> []
      in
      String.concat "+" (base :: mods)

(* [fold_facts] is deliberately NOT interpreted here: folding
   analysis-proved constants needs the range analysis, which lives above
   this library — Flow runs it between optimizer rounds. *)
let run_spec ?(nonneg = Rules.no_facts) ?cost ~outputs spec cfg =
  let pool = all_with ~nonneg in
  let passes = List.map (fun n -> find_exn ~pool n) spec.passes in
  let cfg = run_pipeline ~outputs passes cfg in
  match spec.extract with
  | None -> cfg
  | Some objective ->
      let changed = Extract.run ~nonneg ?cost ~objective cfg in
      if changed then run_pipeline ~outputs passes cfg else cfg
