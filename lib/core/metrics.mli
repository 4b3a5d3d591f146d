(** Exports of the {!Hls_obs.Trace} sink: text for people, a counters
    object for reports ([BENCH_dse.json]), and the Chrome
    [trace_event] format for [chrome://tracing] / Perfetto
    ([hlsc trace], [--trace] on [synth] and [dse]). *)

val chrome_trace : unit -> Hls_util.Json.t
(** The captured spans as Chrome ["X"] (complete) events — [pid] 1,
    [tid] the recording domain, [ts]/[dur] in microseconds since the
    trace epoch, span attributes and the parent link under [args] —
    plus one ["C"] (counter) event per counter with its final total,
    stamped at the trace end. Top-level [counters] and
    [droppedEvents] fields summarize the sink. *)

val counters_json : unit -> Hls_util.Json.t
(** All counters as one object, keys sorted. *)

val counters_with_prefix : string -> (string * int) list
(** Counters whose name starts with the prefix (e.g. ["serve/"],
    ["dse/"]), keys sorted — what a serve response embeds. *)

val counters_json_with_prefix : string -> Hls_util.Json.t
(** {!counters_with_prefix} as one JSON object. *)

val pp_durations : Format.formatter -> (string * float * int) list -> unit
(** One [stage  ms  (calls)] line per entry of
    {!Hls_obs.Trace.durations_snapshot}: the per-stage time breakdown. *)

val render : unit -> string
(** Text report: the {!pp_durations} stage breakdown, the counters, and
    the span-ring occupancy. *)

val render_counters : unit -> string
(** Just the counters, one aligned [name value] line each. *)

val validate_chrome : Hls_util.Json.t -> (unit, string) result
(** Shape-check an emitted Chrome trace: a non-empty [traceEvents]
    array whose events carry [name]/[ph]/[ts]/[pid], with [dur]/[tid]
    on ["X"] events and [args] on ["C"] events. *)

val pipeline_stages : string list
(** The seven pipeline stage span names, in flow order: [frontend],
    [midend], [schedule], [allocate], [bind], [control], [estimate]. *)

val covered_stages : Hls_util.Json.t -> string list
(** Which of {!pipeline_stages} appear as ["X"] events in a Chrome
    trace, in flow order. *)
