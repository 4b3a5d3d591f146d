(** Feedback-guided iterative scheduling — the loop the 1988 paper
    leaves open ("use post-synthesis area/delay results to redo
    scheduling"), following the subgraph-extraction approach: mine a
    finished design for its critical subgraph, re-schedule just those
    blocks under tightened constraints with the incremental
    {!Force_directed} kernel, re-estimate, and keep the result only on
    strict Pareto improvement.

    The module is backend-agnostic: area/delay knowledge flows in
    through {!signals} (delay model, live-storage floor) and candidate
    completion through {!refine}'s [evaluate] callback, so the sched
    layer stays free of rtl/alloc dependencies — [Flow] supplies both.

    Counters: [refine/candidates] (re-schedules generated),
    [refine/infeasible] (targets whose pins or deadline were
    unschedulable), [refine/duplicates] (candidates identical to the
    current schedule or to an earlier candidate), [refine/rejected]
    (completed candidates that were not strict improvements),
    [refine/accepted] and [refine/iterations], plus a [refine/iter]
    span per iteration. All are deterministic at any job count: the
    whole loop is sequential and runs inside the DSE refine memo's
    single-flight slot. *)

open Hls_cdfg

type target = {
  t_block : Cfg.bid;  (** block to re-schedule *)
  t_deadline : int;  (** FDS deadline (tightened or unchanged) *)
  t_pins : (int * int) list;
      (** (depgraph op index, step) pre-fixed placements perturbing the
          distribution-graph priorities *)
  t_label : string;  (** for diagnostics *)
}

type signals = {
  op_delay : Dfg.t -> Dfg.nid -> float;
      (** propagation delay of one op under the component library — the
          weight of the register-to-register chain extraction *)
  live_pins : Cfg.bid -> Dfg.nid list;
      (** producers of the values on the live-storage floor of a block
          of the schedule given to {!extract}, most constraining first
          (at most two are used per block) *)
}

val critical_chain : Depgraph.t -> delay:(int -> float) -> int list
(** Delay-weighted longest dependence path, as ascending op indices.
    Deterministic: ties keep the lowest-index predecessor/endpoint. *)

val extract : signals -> Cfg_sched.t -> target list
(** Critical-subgraph extraction over every block with at least two
    schedulable ops: a rebalance target when some FU class's peak
    concurrency exceeds its average demand, a reduced-deadline target
    when the block has slack over its critical path, chain pins at both
    frame extremes (at the current and the reduced deadline), and
    live-floor producer pins. *)

val candidates : Cfg_sched.t -> targets:target list -> (target * Cfg_sched.t) list
(** Re-schedule each target's block with the incremental
    force-directed kernel under the target's deadline and pins,
    returning whole-program schedules ({!Cfg_sched.with_block}).
    Infeasible targets are dropped, as are candidates bit-identical to
    the current block schedule or to an earlier candidate. *)

val dominates : float * float -> float * float -> bool
(** [dominates a b]: strict Pareto improvement — no worse in either
    coordinate, strictly better in at least one (lower is better). *)

val refine :
  max_iters:int ->
  propose:(iter:int -> 'd -> target list) ->
  evaluate:(Cfg_sched.t -> 'd option) ->
  measure:('d -> float * float) ->
  sched_of:('d -> Cfg_sched.t) ->
  'd ->
  'd * int
(** The acceptance loop. Each iteration proposes targets from the
    current design, generates candidate schedules, completes each via
    [evaluate] ([None] = illegal under the point's limits or backend
    failure), and keeps the best candidate whose [measure] strictly
    Pareto-dominates the current design's. Stops after [max_iters]
    improving iterations or the first iteration with no improvement.
    Returns the refined design and the number of accepted iterations;
    with no acceptance the returned design is physically the seed. *)
