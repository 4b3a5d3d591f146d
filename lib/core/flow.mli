(** The end-to-end synthesis flow: compile → optimize → schedule →
    allocate → bind → synthesize control → estimate. One call takes a
    behavioral specification to a complete verified register-transfer
    design, with every stage's intermediate result exposed. *)

open Hls_lang
open Hls_sched

exception Lint_failed of Hls_analysis.Diagnostic.t list
(** Raised by {!synthesize} (and by the {!Explore}
    sweeps) with the full structured error list when a produced design
    fails verification — either the always-on datapath check or, with
    [~verify:true], the full design {!lint}. The Result-returning API
    ({!run}, {!complete_result}, {!backend_result},
    {!synthesize_result}) never raises it. A printer is registered, so
    an uncaught [Lint_failed] renders every diagnostic. *)

type scheduler =
  | Asap
  | List_path  (** list scheduling, critical-path priority *)
  | List_mobility
  | Force_directed of int  (** extra steps of slack over the critical path *)
  | Freedom
  | Branch_bound  (** falls back to list scheduling past 24 ops *)
  | Ilp_exact  (** Hafer-style 0/1 program; falls back past 12 ops *)
  | Trans_parallel
  | Trans_serial

val scheduler_to_string : scheduler -> string
(** The scheduler's label: ["list/path"], ["force-directed+0"], ... *)

type allocator = [ `Clique | `Greedy_min_mux | `Greedy_first_fit ]

type options = {
  passes : Hls_transform.Passes.pipeline;
      (** optimization pipeline spec; canonical string form via
          {!Hls_transform.Passes.pipeline_to_string} *)
  if_conversion : bool;  (** speculate small branch diamonds into muxes *)
  scheduler : scheduler;
  limits : Limits.t;
  allocator : allocator;
  share_variables : bool;
      (** let non-port variables share registers; library-only *)
  encoding : Hls_ctrl.Encoding.style;
  narrow : bool;
      (** shrink register/FU/mux widths to the {!Hls_analysis.Range}
          inferred widths. Area-only: simulation evaluates at [Op.eval]
          precision regardless of declared storage width, so narrowed
          designs are bit-identical to the baseline. *)
  iterate : int;
      (** feedback-guided refinement iterations after the one-shot
          backend ({!refine_design}): 0 — the default — is the
          historical one-shot flow. Refinement only ever replaces block
          schedules with verified ones, so an iterated design is
          behaviourally bit-identical to its seed; it is accepted only
          on strict Pareto improvement of (area, latency). *)
}

val default_options : options
(** Standard optimization, path-priority list scheduling on two
    functional units, min-mux greedy allocation, binary encoding. *)

(** {2 The option table}

    Each {!options} field is declared once, as a {!Knob.t}: its name,
    its vocabulary, its label printer and the stages it affects. The
    [hlsc] options term, the [lint --matrix] axes, the serve wire
    codec, span attributes, {!Explore.cross} labels, the {!Report} line
    and every {!Dse} memo key are folds over {!Knob.all}, so adding an
    option is one table entry. *)

module Knob : sig
  type stage = Midend | Schedule | Backend | Refine

  type 'a vocab = {
    words : (string * 'a) list;  (** keyword table; [[]] for the limits codec *)
    parse : string -> ('a, string) result;
    print : 'a -> string;  (** canonical: [parse (print v) = Ok v] *)
  }

  (** A flag is a CLI switch and a JSON boolean; an int a number; words
      are CLI words and JSON strings (numbers when integral, as [fus]). *)
  type _ kind = Flag : bool kind | Int : int kind | Words : 'a vocab -> 'a kind

  type 'a t = {
    name : string;  (** record field and span attribute *)
    key : string;  (** wire field; the CLI flag is [--key] with [-] for [_] *)
    aliases : string list;  (** short CLI names *)
    docv : string;
    doc : string;
    stages : stage list;  (** the memo layers whose result it changes *)
    exposed : bool;  (** on the CLI, the wire and spans *)
    kind : 'a kind;
    label : 'a -> string;  (** span attribute, report and sweep label *)
    get : options -> 'a;
    set : 'a -> options -> options;
  }

  type any = Any : 'a t -> any

  val passes : Hls_transform.Passes.pipeline t
  val if_conversion : bool t

  val scheduler : scheduler t
  (** [fds] is [Force_directed 0]; [fds+K] adds K steps of slack. *)

  val limits : Limits.t t
  (** Key [fus]: [0] serial, [-1] unlimited, [N] general units, or
      class caps [alu:1,mul:1,div:1]. *)

  val allocator : allocator t
  val encoding : Hls_ctrl.Encoding.style t
  val narrow : bool t
  val iterate : int t

  val share_variables : bool t
  (** Library-only: [exposed = false]. *)

  val all : any list
  (** In record order. *)

  val text : 'a t -> 'a -> string
  (** The CLI/wire spelling. *)

  val values : 'a t -> 'a list
  (** The keyword table's values. *)

  val attrs : options -> (string * string) list
  (** Every exposed option as span attributes, in table order. *)

  val stage_key : stage list -> options -> string
  (** The canonical text of the options any of the stages depends on;
      limits a scheduler ignores ({!scheduler_ignores_limits}) print as
      unlimited. *)
end

type design = {
  options : options;
  prog : Typed.tprogram;
  cfg : Hls_cdfg.Cfg.t;  (** after optimization *)
  sched : Cfg_sched.t;
  fu : Hls_alloc.Fu_alloc.t;
  regs : Hls_alloc.Reg_alloc.t;
  transfers : Hls_alloc.Interconnect.transfer list;
  datapath : Hls_rtl.Datapath.t;
  controller : Hls_ctrl.Ctrl_synth.t;
  estimate : Hls_rtl.Estimate.t;
}

(** {2 Staged pipeline}

    The flow is exposed as reusable stages so the DSE engine can share
    work between option points: the frontend result depends only on the
    source, the midend result only on [(source, passes,
    if_conversion)], and the schedule only additionally on [(scheduler,
    limits)] — everything downstream of a stage is a pure function of
    that stage's output plus the remaining option fields. Each stage
    runs under an {!Hls_obs.Trace} span named [frontend], [midend],
    [schedule], [allocate], [bind], [control] or [estimate], carrying
    the option fields its result depends on as span attributes — the
    per-stage duration breakdown and the Chrome trace export both read
    from those spans. *)

type compiled = { c_prog : Typed.tprogram }
type optimized = {
  o_prog : Typed.tprogram;
  o_cfg : Hls_cdfg.Cfg.t;
  o_outputs : string list;
  o_deps : Hls_sched.Depgraph.t array;
      (** each block's dependence graph, indexed by block id, built once
          when the midend finishes: every scheduler and bound of every
          point on this result reads it instead of rebuilding it *)
  o_facts : Hls_alloc.Cfg_facts.t;
      (** liveness, variable ids and each block's reads, writes, branch
          condition and operation count: every backend run's
          {!Hls_alloc.Lifetime.table} reads them *)
  o_floors : Floors.t;
      (** the schedule-free bound floors at declared widths, read by
          every {!Explore.Bound.compute} on this result *)
}

val frontend : string -> compiled
(** Parse, inline-expand and typecheck BSL source. Raises
    {!Ast.Frontend_error} on bad input. *)

val frontend_program : Ast.program -> compiled
(** As {!frontend}, starting from an already-parsed program. *)

val compiled_of_typed : Typed.tprogram -> compiled
(** Wrap an already-typechecked program, skipping the frontend. *)

val midend :
  passes:Hls_transform.Passes.pipeline ->
  if_conversion:bool ->
  compiled ->
  optimized
(** Build the CFG and run the pipeline's passes (plus optional
    if-conversion with re-optimization, fact folding when the spec asks
    for it, and cost-guided extraction under the component-library cost
    model). Compiles a fresh CFG each call — passes mutate in place —
    so distinct [optimized] values never alias; the result is only ever
    read downstream and may be shared across worker domains. *)

val nonneg_oracle :
  ports:(string * [ `In | `Out ] * Ast.ty) list ->
  Hls_cdfg.Cfg.t ->
  Hls_cdfg.Cfg.bid ->
  Hls_cdfg.Dfg.nid ->
  bool
(** Range-analysis fact oracle handed to the guarded rewrite rules
    (division by a power of two needs a proven non-negative numerator). *)

val component_cost : Hls_transform.Extract.cost
(** Extraction cost model derived from {!Hls_rtl.Component.library}:
    cheapest component per class, delays in picoseconds. *)

val schedule :
  ?block:(Hls_cdfg.Cfg.bid -> (unit -> Hls_sched.Schedule.t) -> Hls_sched.Schedule.t) ->
  options ->
  optimized ->
  Cfg_sched.t
(** Schedule every block with [options.scheduler] under
    [options.limits], and verify each block's schedule (dependences
    always; limits too unless {!scheduler_ignores_limits}). Raises
    [Invalid_argument] if the scheduler breaks its contract. [block bid
    compute] gets each block's schedule, by default [compute ()]; the
    {!Dse} engine passes its block memo, which may return a schedule
    [compute] produced for another point only when that point's limits
    differ in caps that cannot bind on the block
    ({!Hls_sched.Depgraph.binding_limits}). *)

(** {2 Result API}

    The primary way to drive the flow: verification failures are
    ordinary values carrying the structured diagnostic list, never
    exceptions. [Error] is produced when the datapath fails the
    always-on structural netlist checks, or — with [~verify:true]
    (default [false]) — when the full design {!lint} reports any
    error-severity diagnostic. Internal contract violations (a
    scheduler breaking its own invariants) still raise
    [Invalid_argument]: those are bugs, not designs that failed
    verification. *)

val complete_result :
  ?verify:bool ->
  ?control:(Hls_ctrl.Fsm.t -> Hls_ctrl.Ctrl_synth.t) ->
  options ->
  optimized ->
  sched:Cfg_sched.t ->
  (design, Hls_analysis.Diagnostic.t list) result
(** Allocation, binding, control synthesis and estimation on top of an
    existing schedule. [control] synthesizes the controller of the
    datapath's FSM (default {!Hls_ctrl.Ctrl_synth.synthesize} under
    [options.encoding]); the {!Dse} engine passes its memo layer, which
    must return a controller over that very FSM. *)

val backend_result :
  ?verify:bool -> options -> optimized -> (design, Hls_analysis.Diagnostic.t list) result
(** [schedule] then {!complete_result}; with [options.iterate > 0] the
    completed design additionally goes through {!refine_design}, and
    [~verify] lints the final (refined) design. *)

val refine_design : options -> optimized -> design -> design * int
(** Feedback-guided iterative re-scheduling of a completed design
    ({!Hls_sched.Refine} wired to this backend): up to
    [options.iterate] iterations, each extracting the critical subgraph
    from the current design — the delay-weighted longest
    register-to-register chain under the {!Hls_rtl.Component} delay
    model, blocks with an oversubscribed FU class, producers on the
    live-storage floor — re-scheduling those blocks with the
    incremental force-directed kernel under tightened deadlines and
    distribution-perturbing pins, and completing each candidate through
    the backend. A candidate is kept only if it verifies under
    {!effective_limits} and strictly Pareto-improves (total area,
    latency); with no improvement the seed design itself is returned.
    Returns the design and the number of accepted iterations. Counters
    land under [refine/*] with a [refine] span wrapping the loop and a
    [refine/iter] span per iteration. *)

val run :
  ?verify:bool ->
  options ->
  Typed.tprogram ->
  (design, Hls_analysis.Diagnostic.t list) result
(** The full flow from an already-typechecked program: [midend] →
    {!backend_result}, skipping parse/typecheck. *)

val synthesize_result :
  ?options:options ->
  ?verify:bool ->
  string ->
  (design, Hls_analysis.Diagnostic.t list) result
(** Parse BSL source text and run the full flow. Raises
    {!Ast.Frontend_error} on bad input (malformed input is not a
    design that failed verification). *)

val synthesize_program_result :
  ?options:options ->
  ?verify:bool ->
  Ast.program ->
  (design, Hls_analysis.Diagnostic.t list) result

val scheduler_ignores_limits : scheduler -> bool
(** Time-constrained schedulers ([Force_directed], [Freedom]) derive
    their own deadline and ignore [options.limits]; their schedules are
    verified (and may be cached) independently of the limits. *)

val effective_limits : options -> Limits.t
(** The limits a finished design is actually accountable to:
    [options.limits], or [Unlimited] when {!scheduler_ignores_limits}.
    This is what {!lint} checks schedules against and what
    {!refine_design} requires candidates to verify under. *)

val synthesize : ?options:options -> ?verify:bool -> string -> design
(** {!synthesize_result} with [Error ds] raised as [Lint_failed ds]:
    the one raising wrapper, for callers that treat a design failing
    verification as a bug. *)

(** {2 Design lint}

    Every checker of {!Hls_analysis} plus the netlist rules of
    {!Hls_rtl.Check}, run over one finished design. *)

val lint : design -> Hls_analysis.Diagnostic.t list
(** All diagnostics for the design, sorted with
    {!Hls_analysis.Diagnostic.sort}: CDFG well-formedness, schedule
    legality (under the design's effective limits), allocation/binding
    soundness, netlist structure, controller consistency and the
    microcode image. An empty list means the design is clean. *)

val microcode_image :
  design -> Hls_ctrl.Microcode.field list * int list array
(** The microcoded-control image linted by {!lint}: fields [reg_en]
    (one-hot over the datapath registers), [fu_op] and [branch], and
    one word per FSM state. Exposed so tests can mutate the image and
    feed it back through {!lint_microcode}. *)

val lint_microcode :
  design -> words:int list array -> Hls_analysis.Diagnostic.t list
(** CTRL010 — microcode fields addressing dead resources: a [reg_en]
    bit set for a register the state never loads, or a [branch] flag in
    a state with no condition wire. *)

val ports_of : Typed.tprogram -> (string * [ `In | `Out ] * Ast.ty) list
val output_names : Typed.tprogram -> string list

val cosim_design : design -> Hls_sim.Cosim.design
(** Adapter for {!Hls_sim.Cosim}. *)

val verify : ?runs:int -> design -> (unit, string) result
(** Random-vector co-simulation of the design (behavior = CDFG = RTL). *)
