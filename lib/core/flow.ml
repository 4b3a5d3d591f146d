open Hls_lang
open Hls_sched

exception Lint_failed of Hls_analysis.Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Lint_failed ds ->
        Some
          (Printf.sprintf "Lint_failed: %s"
             (String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds)))
    | _ -> None)

type scheduler =
  | Asap
  | List_path
  | List_mobility
  | Force_directed of int
  | Freedom
  | Branch_bound
  | Ilp_exact
  | Trans_parallel
  | Trans_serial

let scheduler_to_string = function
  | Asap -> "asap"
  | List_path -> "list/path"
  | List_mobility -> "list/mobility"
  | Force_directed k -> Printf.sprintf "force-directed+%d" k
  | Freedom -> "freedom"
  | Branch_bound -> "branch-and-bound"
  | Ilp_exact -> "0/1-programming"
  | Trans_parallel -> "transformational/parallel"
  | Trans_serial -> "transformational/serial"

type allocator = [ `Clique | `Greedy_min_mux | `Greedy_first_fit ]

type options = {
  passes : Hls_transform.Passes.pipeline;
  if_conversion : bool;
  scheduler : scheduler;
  limits : Limits.t;
  allocator : allocator;
  share_variables : bool;
  encoding : Hls_ctrl.Encoding.style;
  narrow : bool;
      (** shrink register/FU/mux widths to the range analysis' inferred
          widths; area-only (simulation evaluates at full precision) *)
  iterate : int;
      (** feedback-guided refinement iterations after the one-shot
          backend: 0 = off (the historical one-shot flow) *)
}

(* time-constrained schedulers derive their own deadline and pay no
   attention to the resource limits in the options *)
let scheduler_ignores_limits = function
  | Force_directed _ | Freedom -> true
  | _ -> false

let effective_limits options =
  if scheduler_ignores_limits options.scheduler then Limits.Unlimited else options.limits

(* ---- the option table ------------------------------------------------ *)

(* Every options field is declared once, here. The CLI term, the wire
   codec, span attributes, sweep labels, the report line and every memo
   key are folds over [Knob.all]; adding an option is one entry. *)
module Knob = struct
  type stage = Midend | Schedule | Backend | Refine

  type 'a vocab = {
    words : (string * 'a) list;
    parse : string -> ('a, string) result;
    print : 'a -> string;
  }

  type _ kind = Flag : bool kind | Int : int kind | Words : 'a vocab -> 'a kind

  type 'a t = {
    name : string;
    key : string;
    aliases : string list;
    docv : string;
    doc : string;
    stages : stage list;
    exposed : bool;
    kind : 'a kind;
    label : 'a -> string;
    get : options -> 'a;
    set : 'a -> options -> options;
  }

  type any = Any : 'a t -> any

  let print_kind : type a. a kind -> a -> string = function
    | Flag -> string_of_bool
    | Int -> string_of_int
    | Words w -> w.print

  let text k = print_kind k.kind
  let values k = match k.kind with Words w -> List.map snd w.words | _ -> []

  let make ?key ?(aliases = []) ?(docv = "") ?(exposed = true) ?label name kind ~stages ~doc
      get set =
    let key = Option.value key ~default:name in
    let label = Option.value label ~default:(print_kind kind) in
    { name; key; aliases; docv; doc; stages; exposed; kind; label; get; set }

  let choices words = String.concat "|" (List.map fst words)

  let table what words =
    let parse s =
      match List.assoc_opt s words with
      | Some v -> Ok v
      | None ->
          Error
            (Printf.sprintf "unknown %s %S (expected one of: %s)" what s
               (String.concat ", " (List.map fst words)))
    in
    let print v = fst (List.find (fun (_, x) -> x = v) words) in
    { words; parse; print }

  let passes =
    let module P = Hls_transform.Passes in
    make "passes" ~docv:"SPEC" ~stages:[ Midend ]
      (Words
         { words = P.named_pipelines; parse = P.pipeline_of_string; print = P.pipeline_to_string })
      ~doc:
        (Printf.sprintf
           "Optimization pipeline spec: a named pipeline (%s), or a comma-separated pass \
            list, optionally followed by +facts, +extract:area or +extract:latency \
            modifiers. Run `hlsc passes' for the catalogue. Examples: aggressive, \
            forward,cse,dce, standard+extract:latency."
           (choices P.named_pipelines))
      (fun o -> o.passes)
      (fun passes o -> { o with passes })

  let if_conversion =
    make "if_conversion" ~key:"if_convert" Flag ~stages:[ Midend ]
      ~doc:"Speculate small branch diamonds into muxes." (fun o -> o.if_conversion)
      (fun if_conversion o -> { o with if_conversion })

  let scheduler =
    let words =
      [
        ("asap", Asap); ("list", List_path); ("list-mobility", List_mobility);
        ("fds", Force_directed 0); ("freedom", Freedom); ("bb", Branch_bound);
        ("ilp", Ilp_exact); ("trans-par", Trans_parallel); ("trans-ser", Trans_serial);
      ]
    in
    let t = table "scheduler" words in
    (* force-directed slack rides on the keyword: fds+K *)
    let parse s =
      match String.split_on_char '+' s with
      | [ "fds"; k ] -> (
          match int_of_string_opt k with
          | Some k when k >= 0 -> Ok (Force_directed k)
          | _ -> Error (Printf.sprintf "bad force-directed slack %S (expected fds+K, K >= 0)" s))
      | _ -> t.parse s
    in
    let print = function Force_directed k when k <> 0 -> "fds+" ^ string_of_int k | s -> t.print s in
    make "scheduler" ~aliases:[ "s" ] ~docv:"ALGO" ~label:scheduler_to_string ~stages:[ Schedule ]
      (Words { t with parse; print })
      ~doc:
        (Printf.sprintf "Scheduler (%s); fds+K gives force-directed scheduling K steps of slack."
           (choices words))
      (fun o -> o.scheduler)
      (fun scheduler o -> { o with scheduler })

  (* 0 = serial, negative = unlimited, N general units, or per-class
     caps such as alu:1,mul:1,div:1 *)
  let limits =
    let cls c = Hls_cdfg.Op.fu_class_to_string c in
    let cap s =
      match String.split_on_char ':' s with
      | [ c; n ] -> (
          let named = List.find_opt (fun k -> cls k = c) Hls_cdfg.Op.occupying_classes in
          match (named, int_of_string_opt n) with
          | Some c, Some n when n > 0 -> Some (c, n)
          | _ -> None)
      | _ -> None
    in
    let parse s =
      match int_of_string_opt s with
      | Some 0 -> Ok Limits.Serial
      | Some n -> Ok (if n < 0 then Limits.Unlimited else Limits.Total n)
      | None ->
          let parts = String.split_on_char ',' s in
          let caps = List.filter_map cap parts in
          if List.compare_lengths caps parts = 0 then Ok (Limits.classes caps)
          else Error (Printf.sprintf "bad unit limit %S (expected N or caps such as alu:1,mul:1)" s)
    in
    let print = function
      | Limits.Serial -> "0"
      | Limits.Unlimited -> "-1"
      | Limits.Total n -> string_of_int n
      | Limits.Classes caps ->
          (caps :> (Hls_cdfg.Op.fu_class * int) list)
          |> List.map (fun (c, n) -> cls c ^ ":" ^ string_of_int n)
          |> String.concat ","
    in
    (* refinement verifies its candidates under the (effective) limits *)
    make "limits" ~key:"fus" ~aliases:[ "k" ] ~docv:"N" ~label:Limits.to_string
      ~stages:[ Schedule; Refine ] (Words { words = []; parse; print })
      ~doc:
        "Functional-unit limit: N general units (0 = serial, -1 = unlimited), or per-class \
         caps such as alu:1,mul:1,div:1 (a class listed twice keeps its smallest cap)."
      (fun o -> o.limits)
      (fun limits o -> { o with limits })

  let allocator =
    let words =
      [ ("clique", `Clique); ("min-mux", `Greedy_min_mux); ("first-fit", `Greedy_first_fit) ]
    in
    make "allocator" ~aliases:[ "a" ] ~docv:"ALGO" ~stages:[ Backend ]
      (Words (table "allocator" words))
      ~doc:(Printf.sprintf "Allocator (%s)." (choices words))
      (fun o -> o.allocator)
      (fun allocator o -> { o with allocator })

  (* library-only: one value in use, on neither the CLI, the wire nor spans *)
  let share_variables =
    make "share_variables" ~exposed:false Flag ~stages:[ Backend ]
      ~doc:"Let non-port variables share registers." (fun o -> o.share_variables)
      (fun share_variables o -> { o with share_variables })

  let encoding =
    let words =
      List.map
        (fun s -> (Hls_ctrl.Encoding.style_to_string s, s))
        Hls_ctrl.Encoding.[ Binary; Gray; One_hot ]
    in
    make "encoding" ~docv:"STYLE" ~stages:[ Backend ] (Words (table "encoding" words))
      ~doc:(Printf.sprintf "State encoding (%s)." (choices words))
      (fun o -> o.encoding)
      (fun encoding o -> { o with encoding })

  let narrow =
    make "narrow" Flag ~stages:[ Backend ]
      ~doc:
        "Narrow registers, functional units and muxes to the widths the value-range \
         analysis proves sufficient (area-only; the design stays bit-identical)."
      (fun o -> o.narrow)
      (fun narrow o -> { o with narrow })

  let iterate =
    make "iterate" ~docv:"N" Int ~stages:[ Refine ]
      ~doc:
        "Feedback-guided refinement: after the one-shot flow, extract the critical \
         subgraph (longest register-to-register chains, oversubscribed unit classes, \
         live-storage floor) and re-schedule it under tightened constraints, up to N \
         accepted iterations. A refined design is behaviourally bit-identical to its \
         seed and accepted only on strict (area, latency) improvement; 0 disables."
      (fun o -> o.iterate)
      (fun iterate o -> { o with iterate })

  let all =
    [
      Any passes; Any if_conversion; Any scheduler; Any limits; Any allocator;
      Any share_variables; Any encoding; Any narrow; Any iterate;
    ]

  let attr k v = (k.name, k.label v)

  let attrs o =
    List.filter_map (fun (Any k) -> if k.exposed then Some (attr k (k.get o)) else None) all

  let stage_key stages o =
    (* limits a scheduler ignores never split a key *)
    let o = { o with limits = effective_limits o } in
    let b = Buffer.create 128 in
    List.iter
      (fun (Any k) ->
        if List.exists (fun s -> List.memq s stages) k.stages then begin
          Buffer.add_string b k.name;
          Buffer.add_char b '=';
          Buffer.add_string b (text k (k.get o));
          Buffer.add_char b ';'
        end)
      all;
    Buffer.contents b
end

(* Span attributes are only read while tracing captures spans; build
   them only then. *)
let span_args f = if Hls_obs.Trace.enabled () then f () else []

let default_options =
  {
    passes = Hls_transform.Passes.default_pipeline;
    if_conversion = false;
    scheduler = List_path;
    limits = Limits.two_fu;
    allocator = `Greedy_min_mux;
    share_variables = true;
    encoding = Hls_ctrl.Encoding.Binary;
    narrow = false;
    iterate = 0;
  }

type design = {
  options : options;
  prog : Typed.tprogram;
  cfg : Hls_cdfg.Cfg.t;
  sched : Cfg_sched.t;
  fu : Hls_alloc.Fu_alloc.t;
  regs : Hls_alloc.Reg_alloc.t;
  transfers : Hls_alloc.Interconnect.transfer list;
  datapath : Hls_rtl.Datapath.t;
  controller : Hls_ctrl.Ctrl_synth.t;
  estimate : Hls_rtl.Estimate.t;
}

let ports_of (p : Typed.tprogram) =
  List.map
    (fun (port : Ast.port) ->
      ( port.Ast.pname,
        (match port.Ast.pdir with Ast.Input -> `In | Ast.Output -> `Out),
        port.Ast.pty ))
    p.Typed.tports

let output_names p =
  List.filter_map (fun (n, d, _) -> if d = `Out then Some n else None) (ports_of p)

(* One block through the scheduler's kernel, on the block's dependence
   graph built once at the end of the midend. *)
let block_scheduler options dep =
  let module S = Hls_sched in
  let limits = options.limits in
  let steps =
    match options.scheduler with
    | Asap -> S.Asap.schedule_dep ~limits dep
    | List_path -> S.List_sched.schedule_dep ~priority:S.List_sched.Path_length ~limits dep
    | List_mobility ->
        let deadline = max 1 (S.Depgraph.critical_length dep) in
        S.List_sched.schedule_dep ~priority:(S.List_sched.Mobility deadline) ~limits dep
    | Force_directed slack ->
        let deadline = max 1 (S.Depgraph.critical_length dep + slack) in
        S.Force_directed.schedule_dep ~deadline dep
    | Freedom -> S.Freedom.schedule_dep dep
    | Branch_bound -> (
        match S.Branch_bound.schedule_dep ~limits dep with
        | Some steps -> steps
        | None -> S.List_sched.schedule_dep ~limits dep)
    | Ilp_exact -> (
        match S.Ilp_sched.schedule_dep ~limits dep with
        | Some steps -> steps
        | None -> S.List_sched.schedule_dep ~limits dep)
    | Trans_parallel -> S.Transformational.from_parallel_dep ~limits dep
    | Trans_serial -> S.Transformational.from_serial_dep ~limits dep
  in
  S.Depgraph.to_schedule dep ~steps

(* ---- staged pipeline ------------------------------------------------ *)

(* Every stage runs under a trace span carrying the option-point
   attributes the stage's result depends on; the span durations are
   what Hls_obs.Trace.durations_snapshot reports. *)

type compiled = { c_prog : Typed.tprogram }
type optimized = {
  o_prog : Typed.tprogram;
  o_cfg : Hls_cdfg.Cfg.t;
  o_outputs : string list;
  o_deps : Hls_sched.Depgraph.t array;
  o_asap : Schedule.t array;
  o_facts : Hls_alloc.Cfg_facts.t;
  o_floors : Floors.t;
}

let front ast = { c_prog = Typecheck.check (Inline.expand ast) }
let frontend_program ast = Hls_obs.Trace.with_span "frontend" (fun () -> front ast)
let frontend src = Hls_obs.Trace.with_span "frontend" (fun () -> front (Parser.parse src))
let compiled_of_typed tprog = { c_prog = tprog }

(* Fact oracle for guarded rewrite rules: range-proven non-negativity.
   Recomputed per optimizer consultation (rewrites renumber node ids)
   and only forced when a guarded rule actually asks — pipelines without
   the algebraic rules never pay for the analysis. *)
let nonneg_oracle ~ports cfg =
  let facts = Hls_analysis.Range.analyze ~ports cfg in
  fun bid nid ->
    match Hls_analysis.Range.node_range facts ~bid ~nid with
    | Some a -> a.Hls_analysis.Range.iv.Hls_util.Interval.lo >= 0
    | None -> false

(* Extraction cost derived from the RTL component library: cheapest
   component of each class, delays in picoseconds. *)
let component_cost =
  {
    Hls_transform.Extract.class_area = Hls_rtl.Component.min_area;
    class_delay_ps = (fun cls -> int_of_float (1000.0 *. Hls_rtl.Component.min_delay_ns cls));
  }

let midend ~passes ~if_conversion c =
  Hls_obs.Trace.with_span "midend"
    ~args:
      (span_args (fun () ->
           [ Knob.attr Knob.passes passes; Knob.attr Knob.if_conversion if_conversion ]))
    (fun () ->
      let prog = c.c_prog in
      let cfg0 = Hls_cdfg.Compile.compile prog in
      let outputs = output_names prog in
      let ports = ports_of prog in
      let optimize cfg =
        Hls_transform.Passes.run_spec ~nonneg:(nonneg_oracle ~ports) ~cost:component_cost
          ~outputs passes cfg
      in
      let cfg = optimize cfg0 in
      let cfg =
        if if_conversion then begin
          let cfg, changed = Hls_transform.If_convert.run cfg in
          if changed then optimize (fst (Hls_transform.Clean_cfg.merge cfg)) else cfg
        end
        else cfg
      in
      (* fact folding (aggressive and up): feed range-proven constants
         back into the folder — values the interval analysis pins down
         across blocks (per-block folding cannot see them) become
         constants, and proven branches become gotos *)
      let cfg =
        if passes.Hls_transform.Passes.fold_facts then begin
          let facts = Hls_analysis.Range.analyze ~ports cfg in
          let value bid nid =
            match Hls_analysis.Range.node_range facts ~bid ~nid with
            | Some a -> Hls_analysis.Range.is_singleton a
            | None -> None
          in
          if Hls_transform.Const_fold.apply_facts cfg ~value then begin
            Hls_obs.Trace.incr "range/folds";
            optimize cfg
          end
          else cfg
        end
        else cfg
      in
      let o_deps =
        Array.init (Hls_cdfg.Cfg.n_blocks cfg) (fun bid ->
            Hls_sched.Depgraph.of_dfg (Hls_cdfg.Cfg.dfg cfg bid))
      in
      let o_asap =
        Array.map (fun dep -> Depgraph.to_schedule dep ~steps:(Depgraph.asap dep)) o_deps
      in
      let o_facts = Hls_alloc.Cfg_facts.make ~outputs cfg in
      let o_floors =
        Floors.make
          ~node_w:(fun g _bid nid -> Hls_cdfg.Op.bits_of (Hls_cdfg.Dfg.ty g nid))
          ~ports:(List.map (fun (n, _, ty) -> (n, ty)) ports)
          o_facts
      in
      { o_prog = prog; o_cfg = cfg; o_outputs = outputs; o_deps; o_asap; o_facts; o_floors })

let schedule options o =
  Hls_obs.Trace.with_span "schedule"
    ~args:
      (span_args (fun () ->
           [ Knob.attr Knob.scheduler options.scheduler; Knob.attr Knob.limits options.limits ]))
    (fun () ->
      (* for limit-ignoring schedulers verify only the dependence half of
         the contract, the full contract otherwise *)
      let limits = effective_limits options in
      let run bid =
        let s = block_scheduler options o.o_deps.(bid) in
        match Schedule.verify limits s with
        | Ok () -> s
        | Error e ->
            invalid_arg
              (Printf.sprintf "Flow: scheduler produced invalid schedule: block %d: %s" bid e)
      in
      (* every kernel that honours the limits returns exactly ASAP when
         ASAP already fits them (the audit is in depgraph.mli) *)
      let f =
        if scheduler_ignores_limits options.scheduler then run
        else fun bid ->
          if Depgraph.asap_fits ~limits o.o_deps.(bid) then o.o_asap.(bid) else run bid
      in
      Cfg_sched.init ~freq:o.o_facts.Hls_alloc.Cfg_facts.freq o.o_cfg f)

(* ---- design-level lint ------------------------------------------------ *)

(* The microcoded-control image of the design: one word per state, a
   register-enable bit per physical register plus an op-select and a
   branch flag (the same shape the microcode experiments cost). A field
   value is a non-negative [int], so the enables take one [reg_en] field
   per [reg_en_bits] registers. *)
let reg_en_bits = Sys.int_size - 1

let reg_en_fields n_regs = max 1 ((n_regs + reg_en_bits - 1) / reg_en_bits)
let reg_en_name j = if j = 0 then "reg_en" else Printf.sprintf "reg_en%d" j

let microcode_image (d : design) =
  let dp = d.datapath in
  let regs = dp.Hls_rtl.Datapath.regs in
  let n_regs = Array.length regs in
  let n_en = reg_en_fields n_regs in
  let fields =
    List.init n_en (fun j ->
        {
          Hls_ctrl.Microcode.fname = reg_en_name j;
          fwidth = max 1 (min reg_en_bits (n_regs - (j * reg_en_bits)));
        })
    @ [
        { Hls_ctrl.Microcode.fname = "fu_op"; fwidth = 5 };
        { Hls_ctrl.Microcode.fname = "branch"; fwidth = 1 };
      ]
  in
  let words =
    Array.mapi
      (fun sid loads ->
        let enables = Array.make n_en 0 in
        Array.iter
          (fun (l : Hls_rtl.Datapath.load) ->
            match Hls_rtl.Datapath.register_index regs l.Hls_rtl.Datapath.l_reg with
            | -1 -> ()
            | i ->
                let j = i / reg_en_bits in
                enables.(j) <- enables.(j) lor (1 lsl (i mod reg_en_bits)))
          loads;
        let op_code =
          match dp.Hls_rtl.Datapath.acts.(sid) with
          | [||] -> 0
          | acts -> Hashtbl.hash acts.(0).Hls_rtl.Datapath.a_op land 0x1F
        in
        let branchy = if dp.Hls_rtl.Datapath.conds.(sid) <> None then 1 else 0 in
        Array.to_list enables @ [ op_code; branchy ])
      dp.Hls_rtl.Datapath.loads
  in
  (fields, words)

(* CTRL010: microcode fields addressing dead resources — a reg_en bit
   for a register the state never loads, or a branch flag in a state
   with no condition wire. *)
let lint_microcode (d : design) ~words =
  let open Hls_analysis.Diagnostic in
  let dp = d.datapath in
  let regs = dp.Hls_rtl.Datapath.regs in
  let n_en = reg_en_fields (Array.length regs) in
  let loaded = Array.make (Array.length regs) false in
  let ds = ref [] in
  Array.iteri
    (fun sid word ->
      match List.filteri (fun j _ -> j >= n_en) word with
      | [ _; branchy ] ->
          let enables = Array.of_list (List.filteri (fun j _ -> j < n_en) word) in
          Array.fill loaded 0 (Array.length loaded) false;
          Array.iter
            (fun (l : Hls_rtl.Datapath.load) ->
              let i = Hls_rtl.Datapath.register_index regs l.Hls_rtl.Datapath.l_reg in
              if i >= 0 then loaded.(i) <- true)
            dp.Hls_rtl.Datapath.loads.(sid);
          Array.iteri
            (fun i (r : Hls_rtl.Datapath.reg_def) ->
              let j = i / reg_en_bits in
              if enables.(j) land (1 lsl (i mod reg_en_bits)) <> 0 && not loaded.(i) then
                ds :=
                  error Ctrl ~code:"CTRL010" (Field (reg_en_name j))
                    "state %d enables register %s which the datapath never loads there" sid
                    r.Hls_rtl.Datapath.rname
                  :: !ds)
            regs;
          if branchy <> 0 && dp.Hls_rtl.Datapath.conds.(sid) = None then
            ds :=
              error Ctrl ~code:"CTRL010" (Field "branch")
                "state %d asserts the branch flag without a condition wire" sid
              :: !ds
      | _ -> ())
    words;
  List.rev !ds

let lint (d : design) =
  let outputs = output_names d.prog in
  let limits = effective_limits d.options in
  let fsm = d.datapath.Hls_rtl.Datapath.fsm in
  let fields, words = microcode_image d in
  Hls_analysis.Cdfg_check.check d.cfg
  @ Hls_analysis.Width_check.check ~ports:(ports_of d.prog) d.cfg
  @ Hls_analysis.Sched_check.check ~limits d.sched
  @ Hls_analysis.Alloc_check.check_fu d.sched d.fu
  @ Hls_analysis.Alloc_check.check_registers d.sched
      ~temp_track:(Hls_alloc.Reg_alloc.temp_track d.regs)
      ~groups:(Hls_alloc.Reg_alloc.variable_groups d.regs)
      ~outputs
  @ Hls_analysis.Alloc_check.check_transfers d.sched ~fu:d.fu ~regs:d.regs d.transfers
  @ Hls_rtl.Check.diagnostics d.datapath
  @ Hls_analysis.Ctrl_check.check_fsm_t fsm
  @ Hls_analysis.Ctrl_check.check_synth d.controller fsm
  @ Hls_analysis.Ctrl_check.check_microcode ~fields ~words
  @ lint_microcode d ~words
  |> Hls_analysis.Diagnostic.sort

(* The Result-returning pipeline is primary; [synthesize] below is the
   one Lint_failed wrapper over it. *)

let designs_counter = Hls_obs.Trace.handle "flow/designs"

let complete_result ?(verify = false) ?control options o ~sched =
  let prog = o.o_prog in
  (* one storage table per backend run: allocation, interconnect and
     binding all read it *)
  let lifetimes = Hls_alloc.Lifetime.table ~facts:o.o_facts sched in
  let fu, regs, transfers =
    Hls_obs.Trace.with_span "allocate"
      ~args:(span_args (fun () -> [ Knob.attr Knob.allocator options.allocator ]))
      (fun () ->
        let fu =
          match options.allocator with
          | `Clique -> Hls_alloc.Fu_alloc.by_clique ~lifetimes sched
          | `Greedy_min_mux -> Hls_alloc.Fu_alloc.greedy ~selection:`Min_mux ~lifetimes sched
          | `Greedy_first_fit -> Hls_alloc.Fu_alloc.greedy ~selection:`First_fit ~lifetimes sched
        in
        let regs =
          Hls_alloc.Reg_alloc.run ~share_variables:options.share_variables ~lifetimes
            ~ports:o.o_floors.Floors.port_names ~outputs:o.o_outputs sched
        in
        let transfers = Hls_alloc.Interconnect.transfers ~lifetimes sched ~fu ~regs in
        (fu, regs, transfers))
  in
  let node_bits =
    if options.narrow then (
      let facts = Hls_analysis.Range.analyze ~ports:(ports_of prog) o.o_cfg in
      Hls_obs.Trace.incr "range/narrowed_designs";
      Some (fun bid nid -> Hls_analysis.Range.node_bits facts ~bid ~nid))
    else None
  in
  let datapath_r =
    Hls_obs.Trace.with_span "bind" (fun () ->
        let datapath =
          Hls_rtl.Datapath.build ?node_bits ~lifetimes sched ~fu ~regs ~ports:(ports_of prog)
        in
        match Hls_rtl.Check.run datapath with
        | Ok () -> Ok datapath
        | Error ds -> Error ds)
  in
  match datapath_r with
  | Error ds -> Error ds
  | Ok datapath ->
      let controller =
        Hls_obs.Trace.with_span "control"
          ~args:(span_args (fun () -> [ Knob.attr Knob.encoding options.encoding ]))
          (fun () ->
            let fsm = datapath.Hls_rtl.Datapath.fsm in
            match control with
            | Some synth -> synth fsm
            | None -> Hls_ctrl.Ctrl_synth.synthesize ~style:options.encoding fsm)
      in
      let estimate =
        Hls_obs.Trace.with_span "estimate" (fun () ->
            Hls_rtl.Estimate.estimate ~style:options.encoding ~ctrl:controller datapath
              sched)
      in
      let d =
        { options; prog; cfg = o.o_cfg; sched; fu; regs; transfers; datapath;
          controller; estimate }
      in
      Hls_obs.Trace.bump designs_counter;
      if verify then
        Hls_obs.Trace.with_span "lint" (fun () ->
            match Hls_analysis.Diagnostic.errors (lint d) with
            | [] -> Ok d
            | es -> Error es)
      else Ok d

(* ---- feedback-guided iterative refinement ---------------------------- *)

(* Delay of one op under the component library — the weight used for
   register-to-register critical-chain extraction. Free ops never reach
   the depgraph, so [bind] always finds a component. *)
let refine_op_delay g nid =
  let op = Hls_cdfg.Dfg.op g nid in
  match Hls_rtl.Component.bind ~cls:(Hls_cdfg.Dfg.fu_class_of g nid) ~ops:[ op ] with
  | c -> c.Hls_rtl.Component.delay_ns
  | exception Not_found -> Hls_rtl.Component.free_op_delay_ns

(* Producers of the longest-lived temporaries: the values whose spans
   set the live-storage floor {!Explore.Bound} prices. Longest span
   first, ties on ascending node id. *)
let refine_live_pins lt bid =
  Hls_alloc.Lifetime.values lt bid
  |> List.filter_map (fun (vi : Hls_alloc.Lifetime.value_info) ->
         match vi.Hls_alloc.Lifetime.storage with
         | Hls_alloc.Lifetime.Temp iv ->
             let len = iv.Hls_util.Interval.hi - iv.Hls_util.Interval.lo in
             if len > 0 then Some (len, vi.Hls_alloc.Lifetime.nid) else None
         | _ -> None)
  |> List.sort (fun (l1, n1) (l2, n2) -> compare (-l1, n1) (-l2, n2))
  |> List.map snd

let refine_design options o seed =
  let signals cs =
    {
      Hls_sched.Refine.op_delay = refine_op_delay;
      live_pins = refine_live_pins (Hls_alloc.Lifetime.table ~facts:o.o_facts cs);
    }
  in
  let limits = effective_limits options in
  let evaluate cs =
    match Cfg_sched.verify limits cs with
    | Error _ -> None
    | Ok () -> (
        match complete_result ~verify:false options o ~sched:cs with
        | Ok d -> Some d
        | Error _ -> None)
  in
  let measure (d : design) =
    ( float_of_int d.estimate.Hls_rtl.Estimate.total_area,
      d.estimate.Hls_rtl.Estimate.latency_ns )
  in
  Hls_obs.Trace.with_span "refine"
    ~args:(span_args (fun () -> [ Knob.attr Knob.iterate options.iterate ]))
    (fun () ->
      Hls_sched.Refine.refine ~max_iters:options.iterate
        ~propose:(fun ~iter:_ d -> Hls_sched.Refine.extract (signals d.sched) d.sched)
        ~evaluate ~measure
        ~sched_of:(fun d -> d.sched)
        seed)

let backend_result ?(verify = false) options o =
  let sched = schedule options o in
  if options.iterate <= 0 then complete_result ~verify options o ~sched
  else
    match complete_result ~verify:false options o ~sched with
    | Error ds -> Error ds
    | Ok seed ->
        let d, _iters = refine_design options o seed in
        if verify then
          Hls_obs.Trace.with_span "lint" (fun () ->
              match Hls_analysis.Diagnostic.errors (lint d) with
              | [] -> Ok d
              | es -> Error es)
        else Ok d

let run ?verify options tprog =
  backend_result ?verify options
    (midend ~passes:options.passes ~if_conversion:options.if_conversion
       (compiled_of_typed tprog))

let synthesize_program_result ?(options = default_options) ?verify ast =
  backend_result ?verify options
    (midend ~passes:options.passes ~if_conversion:options.if_conversion
       (frontend_program ast))

let synthesize_result ?(options = default_options) ?verify src =
  backend_result ?verify options
    (midend ~passes:options.passes ~if_conversion:options.if_conversion
       (frontend src))

let synthesize ?options ?verify src =
  match synthesize_result ?options ?verify src with
  | Ok d -> d
  | Error ds -> raise (Lint_failed ds)

let cosim_design d =
  {
    Hls_sim.Cosim.d_prog = d.prog;
    Hls_sim.Cosim.d_cfg = d.cfg;
    Hls_sim.Cosim.d_datapath = d.datapath;
    Hls_sim.Cosim.d_controller = d.controller;
  }

let verify ?runs d = Hls_sim.Cosim.check_random ?runs (cosim_design d)
