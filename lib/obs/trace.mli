(** Structured event tracing and metrics for the synthesis pipeline.

    One global, mutex-guarded sink with three kinds of state, designed
    to be written from any domain (the calling domain and the domains
    [Hls_util.Pool.map] spawns alike):

    - {e duration accumulators} — per-stage wall-clock totals and call
      counts, always on — the per-stage breakdown that
      [Hls_core.Metrics.pp_durations] prints;
    - {e counters} — named monotonic integers, always on. Names are
      namespaced by subsystem ([dse/backend.hits], [sched/ops_scheduled],
      [alloc/clique_merges], [ctrl/qm_iterations], [pool/serial_fallbacks], ...).
      Counters under [pool/] describe execution topology (fallbacks,
      lanes that ran items) and legitimately differ between [--jobs] settings; every
      other counter is a deterministic function of the work done, and —
      because the DSE cache is single-flight — of the option points
      evaluated, independent of worker count;
    - {e the span ring} — completed spans with attributes, a parent
      link and the owning domain id, captured only between {!enable}
      and {!disable}. Fixed capacity, oldest-first overwrite, with
      {!dropped} reporting lost history. This is what the Chrome
      [trace_event] export ([Hls_core.Metrics]) renders.

    Span nesting is tracked with a domain-local stack, so concurrent
    workers never see each other's parents. *)

type span = {
  sp_name : string;
  sp_args : (string * string) list;  (** stage/workload/option-point attributes *)
  sp_parent : string option;  (** innermost enclosing span on the same domain *)
  sp_domain : int;  (** [Domain.self] of the recording domain *)
  sp_start : float;  (** seconds since the trace epoch *)
  sp_dur : float;  (** wall-clock duration in seconds *)
}

(** {2 Spans} *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk as a named span: its duration is always added to the
    stage accumulators (also on exception), and while {!enabled} the
    completed span is pushed onto the ring. *)

val enable : ?capacity:int -> unit -> unit
(** Start capturing spans into a ring of [capacity] (default 8192)
    events. Re-enabling with a different capacity reallocates the ring. *)

val disable : unit -> unit
val enabled : unit -> bool

val spans : unit -> span list
(** Retained spans, oldest first (completion order). *)

val dropped : unit -> int
(** Spans overwritten since the last {!reset}. *)

val current_parent : unit -> string option
(** Name of the innermost open span on the calling domain, if any. *)


(** {2 Counters} *)

val incr : string -> unit
val add : string -> int -> unit

type handle
(** A counter's cell, for hot paths: look it up once with {!handle},
    then {!bump} or {!add_to} it without a table lookup or the lock. *)

val handle : string -> handle
(** The named counter's cell, registered on first use. A registered
    counter is listed by {!counters} only once it has been bumped since
    the last {!reset}. *)

val bump : handle -> unit
val add_to : handle -> int -> unit

val record_max : string -> int -> unit
(** High-watermark counter: keep the maximum of the recorded values. *)

val counter : string -> int
(** Current value; 0 for a counter never touched. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

(** {2 Ids} *)

val fresh_id : unit -> int
(** Process-unique monotonically increasing id (atomic, never reset) —
    what the serve daemon stamps each request's trace span with. *)

(** {2 Durations} *)

val record_duration : string -> float -> unit
(** Add raw seconds to a stage accumulator without a span. *)

val durations_snapshot : unit -> (string * float * int) list
(** [(stage, total seconds, calls)] in first-recorded order. *)

val reset_durations : unit -> unit
(** Clear only the duration accumulators, leaving counters and the
    span ring alone: a fresh measurement window. *)

val reset : unit -> unit
(** Clear everything — durations, counters, the span ring — and re-arm
    the trace epoch. Capture stays enabled/disabled as it was. *)
