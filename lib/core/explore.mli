(** Design-space exploration — "a good synthesis system can produce
    several designs for the same specification in a reasonable amount of
    time [to] explore different trade-offs between cost, speed, power".

    Sweeps resource limits, schedulers, or their cross product over one
    specification, estimates each design, and reports the area/latency
    Pareto frontier. Sweeps are evaluated through a {!Dse} engine on
    the Result API — memoized and optionally on worker domains per
    [config.jobs] — and return points in sweep order regardless of job
    count. Pass [engine] to share one cache across several sweeps of
    the same source (the engine's own source {e and config} are used —
    [config] only shapes the engine a sweep creates itself; it must
    wrap the same specification). A point that fails verification
    (possible only under an engine configured with [verify]) raises
    {!Flow.Lint_failed}. *)

type point = {
  label : string;
  options : Flow.options;
  design : Flow.design;
  area : int;
  latency_ns : float;
}

val default_limits : Hls_sched.Limits.t list
(** Serial, 2, 3 and 4 general units, and a 1-ALU/1-mul/1-div split. *)

val default_schedulers : Flow.scheduler list

val sweep :
  ?config:Dse.config ->
  ?engine:Dse.t ->
  ?base:Flow.options ->
  ?schedulers:Flow.scheduler list ->
  ?limits:Hls_sched.Limits.t list ->
  ?pipelines:Hls_transform.Passes.pipeline list ->
  ?iterates:int list ->
  string ->
  point list
(** The one sweep entry point: the iterates × pipelines × scheduler ×
    limits cross product of {!cross} (default 1 × 1 × 8 × 5 = 40
    points). [pipelines] defaults to just the base options' spec,
    [iterates] to just the base options' [iterate]; pass
    [~schedulers:[s]] for a limits-only sweep, [~limits:[l]] for a
    scheduler-only one, or e.g. [~iterates:[0; 3]] to compare
    feedback-refined points against every one-shot scheduler. *)

val cross :
  ?pipelines:Hls_transform.Passes.pipeline list ->
  ?iterates:int list ->
  base:Flow.options ->
  schedulers:Flow.scheduler list ->
  limits:Hls_sched.Limits.t list ->
  unit ->
  (string * Flow.options) list
(** The labelled option points a {!sweep} evaluates, iterates
    outermost and limits innermost; an empty axis holds the base
    value. Labels name only the axes that vary, printed by the option
    table ({!Flow.Knob}): ["scheduler @ limits"], then
    [" / pipeline"] and [" / iterate N"] — so a limits-only sweep reads
    ["serial"], a scheduler-only one ["list/path"]. A single point is
    labelled ["scheduler @ limits"]. *)

type pruned_point = {
  pr_label : string;
  pr_options : Flow.options;
  pr_area_lb : int;  (** sound area lower bound the point was ranked on *)
  pr_latency_lb : float;  (** sound latency lower bound *)
}

type pruned_sweep = {
  evaluated : point list;
      (** points promoted through the backend, in sweep order — a
          superset of the frontier, so [pareto evaluated] equals the
          exhaustive sweep's frontier exactly *)
  pruned : pruned_point list;  (** points discarded before their backend ran *)
  rounds : int;
      (** backend verdicts incorporated in flight (promoted class
          representatives) *)
}

val sweep_pruned :
  ?config:Dse.config ->
  ?engine:Dse.t ->
  ?base:Flow.options ->
  ?schedulers:Flow.scheduler list ->
  ?limits:Hls_sched.Limits.t list ->
  ?pipelines:Hls_transform.Passes.pipeline list ->
  ?iterates:int list ->
  string ->
  pruned_sweep
(** The scheduler × limits cross product under pareto-guided in-flight
    pruning. Every point runs the cheap stages (frontend/midend/
    schedule, memoized) and gets {e sound} area/latency lower bounds
    derived from the schedule alone — coupled per-class unit + operand
    steering floor, peak live-value storage, state register,
    cheapest-component cycle floor (for [iterate > 0] points, their
    schedule-free counterparts — see {!Bound.compute}). Backend classes
    are then decided one at a time, most promising bound-score first,
    with up to a fixed window of promotions evaluating through the
    shared {!Hls_util.Pool} in flight: each backend verdict is
    incorporated the moment its future is awaited (oldest first, in
    submission order — never when it happens to land, keeping every
    decision and counter identical at any job count), and a pending
    point is pruned as soon as an evaluated design dominates its bounds
    (or its exact value, once a point sharing its backend cache key has
    been evaluated). Because the bounds underestimate the true estimate
    componentwise and dominance is monotone and transitive, a pruned
    point can never be on the frontier: [pareto evaluated] is
    bit-identical to [pareto] of the exhaustive {!sweep}. Reports
    [dse/points_evaluated], [dse/pruned_points] (their sum is the point
    count) and [dse/prune_rounds] through {!Hls_obs.Trace}. *)

(** Sound area/latency lower bounds computed from the cheap stages
    (schedule + CFG) alone — what {!sweep_pruned} ranks and prunes on.
    Exposed so tests can assert soundness ([compute] never exceeds the
    true estimate) directly. *)
module Bound : sig
  val port_reg_area : Flow.optimized -> Hls_sched.Cfg_sched.t -> int
  (** Registers of every port read or written in the CFG — ports are
      never shared (and never narrowed), so these exist at their
      declared widths at every step boundary. *)

  val live_reg_area :
    node_w:(Hls_cdfg.Dfg.t -> int -> int -> int) ->
    Flow.optimized ->
    Hls_sched.Cfg_sched.t ->
    int
  (** Peak simultaneous {e non-port} stored-value footprint over all
      step boundaries ({!Hls_alloc.Lifetime}); adds to
      {!port_reg_area}. *)

  val reg_mux_area_lb :
    node_w:(Hls_cdfg.Dfg.t -> int -> int -> int) ->
    Flow.optimized ->
    Hls_sched.Cfg_sched.t ->
    int
  (** Register-input steering floor: every distinct constant assigned
      to a variable is a distinct wire on its register's load mux (plus
      one wire when any assignment is computed). Port registers are
      dedicated, so their demands add; non-port variables may share
      registers, so only the largest single demand counts. *)

  val fu_input_mux_area_lb :
    node_w:(Hls_cdfg.Dfg.t -> int -> int -> int) ->
    schedule_free:bool ->
    Hls_sched.Cfg_sched.t ->
    int
  (** Coupled functional-unit + operand-steering floor, per class: the
      distinct constant operands at each argument position are
      dedicated wires (plus one for all computed/register operands
      together — those may merge), split across at most one input mux
      per unit; more units absorb more wires but each costs at least
      the cheapest class component, so the floor is the minimum over
      the unit count of the coupled sum. The FU term is floored per
      class by the schedule's peak demand: the larger of the busiest
      step's width-aware cheapest-component sum (concurrent operations
      run on distinct units, each at least as wide as its own
      operation) and peak concurrency × cheapest component at the
      narrowest class width. [schedule_free] drops that floor so the
      bound stays sound for {e any} legal schedule of the CFG — what an
      [iterate > 0] point may ship after refinement. [node_w g bid nid]
      is the operation's storage width — declared type width normally,
      the range-inferred width under [narrow] (see {!compute}). *)

  val ctrl_area_lb : Flow.options -> Hls_sched.Cfg_sched.t -> int
  (** The controller's state register under the point's encoding. *)

  val cycle_lb : Hls_sched.Cfg_sched.t -> float
  (** Register read + one mux level + the slowest operation's cheapest
      class component. *)

  val compute : Flow.options -> Flow.optimized -> Hls_sched.Cfg_sched.t -> int * float
  (** [(area_lb, latency_lb)] — componentwise under the true
      {!Hls_rtl.Estimate} of any backend completion of the point. Under
      [options.narrow] the width-dependent floors use the range
      analysis' inferred widths (the same facts the datapath narrowing
      consumes), so the bounds stay sound {e and} tight for narrowed
      backends. For [options.iterate > 0] the schedule-derived floors
      (per-class peak demand, live storage, state count, step count)
      are replaced by schedule-free ones — critical-chain step/state
      floors, presence-only unit floors — because refinement may ship a
      different schedule than the one ranked here; the bounds then hold
      for the refined design too. *)
end

val dominates : point -> point -> bool
(** [dominates a b]: [a] is no worse in both coordinates and strictly
    better in one. *)

val frontier_mask : (int * float) list -> bool list
(** [frontier_mask values] marks, for each (area, latency) pair, whether
    no other pair dominates it — the Pareto membership test behind
    {!pareto} and {!table}, exposed for property tests. Sort-based,
    O(n log n). *)

val pareto : point list -> point list
(** Points not dominated in (area, latency), sorted by area.
    O(n log n) via {!frontier_mask}. *)

val table : ?timings:bool -> point list -> string
(** Rendered comparison table (label, FUs, steps, area, latency, Pareto
    marker). Frontier membership is decided by the dominance criterion
    (structural), so points coming from a shared design cache are marked
    correctly. [timings:true] appends the {!Timing.snapshot} per-stage
    breakdown accumulated so far. *)
