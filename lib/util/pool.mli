(** Fork-join parallel map over OCaml 5 domains, used to evaluate
    independent synthesis jobs — e.g. the points of a design-space
    sweep — concurrently.

    Each {!map} call spawns its own domains and joins them before it
    returns: no pool outlives a call. The domains a call may spawn
    come from one process-wide budget of
    [Domain.recommended_domain_count () - 1] spare lanes (the calling
    domain is the remaining lane), so maps running at once from
    several domains — e.g. the serve daemon's handlers — never spawn
    more domains together than the machine has spare cores.

    It reports two counters into {!Hls_obs.Trace}:
    [pool/serial_fallbacks] ({!map} calls at [jobs > 1] that ran
    inline: too few items, or no spare lane free) and
    [pool/workers_active] (high watermark of the lanes — caller
    included — that ran at least one item of a single {!map}: the
    parallelism achieved, 1 under fallback). They describe how the work
    was run, not what was computed, so — unlike every other counter
    namespace — they legitimately differ between machines and job
    counts. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] evaluated on up to [jobs]
    lanes: the calling domain plus up to [jobs - 1] domains spawned for
    this call, as many as the spare-lane budget has free. All lanes
    pull item indices from one shared counter. Results come back in
    input order. With [jobs <= 1] (the default) the map is [List.map];
    a map of at most 4 items, or one that finds no lane free, runs on
    the calling domain alone. At [jobs > 1], if any application raises,
    every item still runs and the first exception in input order is
    re-raised. *)
