open Hls_util
open Hls_cdfg

(* Cost-guided extraction: bounded e-graph-lite over the candidate
   rules. Per block, every extraction rule's right-hand side is
   materialized NEXT TO the original node (the alternative's cone is
   built first so the original copy can still reference nothing newer
   than itself — node ids stay topological), then a small 0/1 program
   over Binprog picks one member per choice group minimizing an
   area/latency cost, and the block is rebuilt keeping only the live
   side of each choice.

   The cost model mirrors how the backend actually pays: functional
   units are shared, so replacing one multiply by shift/add chains only
   saves area if it removes the LAST multiply from the block. That is
   expressed with per-class indicator variables y_c — created only for
   classes not already required by unconditional nodes — such that
   selecting a cone containing a step-occupying node of class c forces
   y_c, whose objective weight is the class's cheapest-component area at
   the widest optional operand. Per-step weights (10 per step-occupying
   cone node for area, class delay/100 for latency) plus a +1 alternative
   tie-break make the original win whenever no class disappears. *)

type objective = [ `Area | `Latency ]

let objective_to_string = function `Area -> "area" | `Latency -> "latency"

let objective_of_string = function
  | "area" -> Some `Area
  | "latency" -> Some `Latency
  | _ -> None

type cost = {
  class_area : Op.fu_class -> width:int -> int;
  class_delay_ps : Op.fu_class -> int;
}

(* Stand-in numbers of the same flavor as the RTL component library;
   Flow injects the real library-derived figures. *)
let default_cost =
  {
    class_area =
      (fun c ~width ->
        match c with
        | Op.C_alu -> 24 + (4 * width)
        | Op.C_mul -> 120 + (24 * width)
        | Op.C_div -> 160 + (30 * width)
        | Op.C_shift -> 16 + (3 * width)
        | Op.C_free | Op.C_none -> 0);
    class_delay_ps =
      (fun c ->
        match c with
        | Op.C_alu -> 10_000
        | Op.C_mul -> 40_000
        | Op.C_div -> 60_000
        | Op.C_shift -> 8_000
        | Op.C_free | Op.C_none -> 0);
  }

let width_of ty = Fixedpt.bits (Op.fmt_of ty)

let run ?(nonneg = Rules.no_facts) ?(cost = default_cost) ~objective
    ?(rules = Rules.extraction_rules) cfg =
  let oracle = lazy (nonneg cfg) in
  let changed = ref false in
  List.iter
    (fun bid ->
      let src = Cfg.dfg cfg bid in
      let env = { Rules.nonneg = (fun nid -> (Lazy.force oracle) bid nid) } in
      let fns = List.map (fun r -> r.Rules.make src env) rules in
      (* Saturation: run each candidate rule per node, recording the
         freshly built cone as a half-open window [lo, hi) with its
         root, then keep the original too. *)
      let pending : (Dfg.nid, (int * int * Dfg.nid) list) Hashtbl.t = Hashtbl.create 8 in
      let sat, sat_remap =
        Rewrite.rewrite_dfg src ~rule:(fun ~out ~remap id node ~mapped_args ->
            let v = { Rules.out; remap; id; node; mapped_args } in
            let alts =
              List.filter_map
                (fun f ->
                  let lo = Dfg.n_nodes out in
                  match f v with
                  | Some (Rewrite.Subst root) -> Some (lo, Dfg.n_nodes out, root)
                  | Some _ | None -> None)
                fns
            in
            if alts <> [] then Hashtbl.replace pending id alts;
            Rewrite.Copy)
      in
      if Hashtbl.length pending > 0 then begin
        let groups =
          Hashtbl.fold (fun old_id alts acc -> (sat_remap.(old_id), alts) :: acc) pending []
        in
        let optional = Hashtbl.create 32 in
        List.iter
          (fun (copy, alts) ->
            Hashtbl.replace optional copy ();
            List.iter
              (fun (lo, hi, _) ->
                for n = lo to hi - 1 do
                  Hashtbl.replace optional n ()
                done)
              alts)
          groups;
        (* classes the block needs regardless of any choice *)
        let always = Hashtbl.create 8 in
        Dfg.iter
          (fun nid _ ->
            if (not (Hashtbl.mem optional nid)) && Dfg.occupies_step sat nid then
              Hashtbl.replace always (Dfg.fu_class_of sat nid) ())
          sat;
        let bp = Binprog.create () in
        let step_cost nid =
          if not (Dfg.occupies_step sat nid) then 0
          else
            match objective with
            | `Area -> 10
            | `Latency -> cost.class_delay_ps (Dfg.fu_class_of sat nid) / 100
        in
        let yvars : (Op.fu_class, Binprog.var) Hashtbl.t = Hashtbl.create 4 in
        let ywidth : (Op.fu_class, int) Hashtbl.t = Hashtbl.create 4 in
        let yvar c =
          match Hashtbl.find_opt yvars c with
          | Some v -> v
          | None ->
              let v = Binprog.new_var bp in
              Hashtbl.add yvars c v;
              v
        in
        let obj = ref [] in
        let add_sel_costs var cone_ids ~tie =
          let w = List.fold_left (fun acc nid -> acc + step_cost nid) tie cone_ids in
          if w > 0 then obj := (var, w) :: !obj;
          List.iter
            (fun nid ->
              if Dfg.occupies_step sat nid then begin
                let c = Dfg.fu_class_of sat nid in
                if not (Hashtbl.mem always c) then begin
                  Binprog.implies bp var (yvar c);
                  let w0 = Option.value (Hashtbl.find_opt ywidth c) ~default:0 in
                  Hashtbl.replace ywidth c (max w0 (width_of (Dfg.ty sat nid)))
                end
              end)
            cone_ids
        in
        let selections =
          List.map
            (fun (copy, alts) ->
              let x_orig = Binprog.new_var bp in
              let x_alts =
                List.map (fun (lo, hi, root) -> (Binprog.new_var bp, lo, hi, root)) alts
              in
              Binprog.add_group bp (x_orig :: List.map (fun (v, _, _, _) -> v) x_alts);
              add_sel_costs x_orig [ copy ] ~tie:0;
              List.iter
                (fun (v, lo, hi, _) ->
                  add_sel_costs v (List.init (hi - lo) (fun i -> lo + i)) ~tie:1)
                x_alts;
              (copy, x_orig, x_alts))
            groups
        in
        (match objective with
        | `Area ->
            Hashtbl.iter
              (fun c y ->
                obj := (y, cost.class_area c ~width:(Hashtbl.find ywidth c)) :: !obj)
              yvars
        | `Latency -> ());
        match (try Binprog.solve ~objective:!obj bp with Invalid_argument _ -> None) with
        | None -> () (* infeasible/over budget: keep the original block *)
        | Some sol ->
            let redirect = Hashtbl.create 8 in
            List.iter
              (fun (copy, x_orig, x_alts) ->
                if not (sol x_orig) then
                  match List.find_opt (fun (v, _, _, _) -> sol v) x_alts with
                  | Some (_, _, _, root) -> Hashtbl.replace redirect copy root
                  | None -> ())
              selections;
            if Hashtbl.length redirect > 0 then begin
              let follow id = Option.value (Hashtbl.find_opt redirect id) ~default:id in
              let n = Dfg.n_nodes sat in
              let live = Array.make n false in
              let rec mark id =
                let id = follow id in
                if not live.(id) then begin
                  live.(id) <- true;
                  List.iter mark (Dfg.args sat id)
                end
              in
              Dfg.iter
                (fun nid node ->
                  match node.Dfg.op with Op.Write _ -> mark nid | _ -> ())
                sat;
              let term = Cfg.term cfg bid in
              (match term with
              | Cfg.Branch (c, _, _) -> mark sat_remap.(c)
              | Cfg.Goto _ | Cfg.Halt -> ());
              let final = Dfg.create () in
              let fmap = Array.make n (-1) in
              for id = 0 to n - 1 do
                if live.(id) then begin
                  let node = Dfg.node sat id in
                  fmap.(id) <-
                    Dfg.add final node.Dfg.op
                      (List.map (fun a -> fmap.(follow a)) node.Dfg.args)
                      node.Dfg.ty
                end
              done;
              let term' =
                match term with
                | Cfg.Branch (c, bt, bf) -> Cfg.Branch (fmap.(follow sat_remap.(c)), bt, bf)
                | t -> t
              in
              Cfg.replace_dfg cfg bid final term';
              changed := true
            end
      end)
    (Cfg.block_ids cfg);
  !changed
