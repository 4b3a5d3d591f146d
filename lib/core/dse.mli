(** Parallel, memoized design-space exploration engine.

    An engine wraps one behavioral source and evaluates {!Flow.options}
    points against it, sharing work between points through a layered
    content-keyed cache over the staged flow:

    - {e frontend} (parse/inline/typecheck) runs once per engine;
    - {e midend} (CFG build + optimization) once per
      [(canonical pipeline spec, if_conversion)];
    - {e schedule} once per midend key + [(scheduler, limits)], with
      the limits canonicalized away for schedulers that ignore them
      ({!Flow.scheduler_ignores_limits});
    - {e block} (inside a schedule miss) once per midend key + block +
      scheduler + the caps that can bind on that block
      ({!Hls_sched.Depgraph.binding_limits}): a cap at least the
      number of operations it constrains never changes a block's
      schedule, so e.g. 3 and 4 general units share every block of at
      most 3 operations;
    - {e backend} (allocate/bind/control/estimate) once per midend key
      + schedule {e content} digest + the backend options
      ([allocator, share_variables, encoding, narrow]) — points whose
      schedulers happen to place every operation identically share one
      backend run. The digest is computed once per schedule miss and
      cached with the schedule;
    - {e control} (controller synthesis, inside a backend run) once per
      midend key + [encoding] + each block's step count — the FSM
      depends on nothing else, so backend runs over schedules of equal
      per-block length share one synthesis. A hit is rebound to the
      design's own FSM ({!Hls_ctrl.Ctrl_synth.with_fsm}), so designs are
      identical to fresh ones, {!design_digest} included.

    Every key is the canonical text {!Flow.Knob.stage_key} prints for
    the stage.

    How an engine evaluates is a {!config} record fixed at creation,
    mirroring how {!Flow.options} fixes what is synthesized. {!run_result}
    evaluates a point list with {!Hls_util.Pool.map} on up to
    [config.jobs] domains. Results are returned in input order and are
    identical for any job count: memoization is {e single-flight} —
    workers racing on one key block until the first computes it — so
    each stage runs exactly once per unique key. That also makes the
    cache hit/miss totals and every kernel counter reported through
    {!Hls_obs.Trace} deterministic across job counts. An engine may be
    reused across calls — the cache carries over, which is the point.

    Each layer also reports global trace counters
    ([dse/frontend.hits], [dse/backend.misses], [dse/control.hits], ...) and each point
    evaluation runs under a [dse/point] span carrying the option-point
    attributes. *)

open Hls_lang

type t

type config = {
  jobs : int;  (** worker domains for {!run_result} ([<= 1] stays on the calling domain) *)
  verify : bool;  (** run the full design lint on every evaluated point *)
  memoize : bool;  (** [false] disables every cache layer (the serial baseline) *)
  cache_dir : string option;
      (** persistent design cache directory. When set (and [memoize]),
          every {!eval_result} runs through an additional {e persist}
          layer above the staged tables: an in-memory single-flight
          table over whole points, backed by an on-disk
          content-addressed store ({!Hls_util.Disk_cache}). Keys mirror
          the layered memo keys — digest of (running binary, source,
          [verify], every {!Flow.Knob.stage_key}) — so a fresh process (a daemon
          restart) answers a repeated request from disk without running
          any pipeline stage, bit-identically. Corrupt or truncated
          entries read as a miss. Probes bump [dse/persist.hits/misses]
          (memory) and [serve/disk_hits]/[serve/disk_misses] (disk). *)
}

val default_config : config
(** [{ jobs = 1; verify = false; memoize = true; cache_dir = None }]. *)

val create : ?config:config -> string -> t
(** Engine over BSL source text (default config {!default_config}). *)

val create_program : ?config:config -> Ast.program -> t
(** Engine over an already-parsed program. *)

val config : t -> config

val eval_class :
  t -> Flow.options -> Flow.optimized * Hls_sched.Cfg_sched.t * string
(** {!eval_cheap} plus the point's backend class: the key under which
    points whose cheap stages (midend key and schedule) agree share one
    backend run — and, for [iterate > 0], one refinement run — built
    from the schedule digest the schedule layer cached. Points of one
    class have one true (area, latency) and one
    {!Explore.Bound.compute} value. *)

val eval_cheap : t -> Flow.options -> Flow.optimized * Hls_sched.Cfg_sched.t
(** Evaluate one option point through the {e cheap} stages only —
    frontend, midend and scheduling — via the same cache keys as
    {!eval_result}, skipping allocate/bind/control/estimate. This is
    what a pruned sweep ranks on: the schedule fixes the step count
    and per-class unit requirement exactly, from which sound area and
    latency lower bounds follow without paying the backend. A later
    {!eval_result} of the same point reuses every stage computed
    here. *)

val eval_result :
  t -> Flow.options -> (Flow.design, Hls_analysis.Diagnostic.t list) result
(** Evaluate one option point through the cache. The returned design
    carries exactly the options given (a backend cache hit is
    rewrapped). [Error] carries the structural netlist diagnostics, or
    — when [config.verify] — any error-severity diagnostics from
    {!Flow.lint}, run on the rewrapped design for cache hits and misses
    alike. Raises as {!Flow.synthesize_result} does on malformed
    input. *)

val run_result :
  t ->
  Flow.options list ->
  (Flow.design, Hls_analysis.Diagnostic.t list) result list
(** Evaluate the points with {!Hls_util.Pool.map} on up to
    [config.jobs] domains (the caller and domains spawned for this call
    only); results in input order. Effective parallelism adapts to the
    machine — with no spare core free the map runs on the calling
    domain — but results and every non-pool counter are identical
    either way. *)

type layer = { hits : int; misses : int }

type stats = {
  frontend : layer;
  midend : layer;
  schedule : layer;
  block : layer;
      (** block schedulings, probed once per block by schedule misses
          only *)
  backend : layer;
  control : layer;
      (** controller syntheses, probed by backend misses only: never
          more misses than the backend layer *)
  refine : layer;
      (** the feedback-refinement layer: keyed on the backend seed plus
          effective limits and iterate count, probed only for points
          with [iterate > 0] *)
}

val stats : t -> stats
(** Cache hit/miss counters per layer since creation (or {!clear}).
    Single-flight memoization makes the totals deterministic: one miss
    per unique key probed, hits for every other probe, for any job
    count. *)

val clear : t -> unit
(** Drop all cached stage results (including the in-memory persist
    table — the disk store is untouched) and zero the counters. Must
    not be called while a {!run_result} is in flight. *)

val design_digest : Flow.design -> string
(** Hex digest of the design's marshalled image. Two designs with equal
    digests are bit-identical values; a disk-cache hit reproduces the
    digest of the design originally stored. What the serve protocol
    reports as [design_hash]. *)

val pp_stats : Format.formatter -> stats -> unit
