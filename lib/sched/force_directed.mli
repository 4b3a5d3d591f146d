(** Force-directed scheduling (Paulin & Knight's HAL; Fig 5).

    Time-constrained: given a deadline, every operation's possible step
    range (ASAP–ALAP time frame) feeds a per-class {e distribution graph}
    — for each control step, the expected number of concurrent operations
    assuming all schedules equally likely (an op with a k-step frame
    contributes 1/k to each step). Operations are then fixed one at a
    time, choosing the (op, step) pair with the lowest force — the
    placement that best balances the distribution — and frames are
    recomputed after each placement. The functional units required are
    the per-class maxima of the final distribution.

    {!schedule_dep} is the incremental kernel: ASAP/ALAP frames are
    maintained by worklists that re-propagate only through ops whose
    bounds changed, distribution graphs are rebuilt only for classes an
    update touched, and candidate forces are cached per op with
    invalidation scoped to the placement's blast radius. Placements are
    bit-identical to {!schedule_dep_reference} (the retained seed
    implementation) because every recomputed float uses the oracle's
    formulas in the oracle's evaluation order, and cached floats are only
    reused while all of their inputs are unchanged.

    Work is reported through {!Hls_obs.Trace} counters:
    [sched/fd_placements], [sched/fd_frame_updates] (ops whose bounds
    moved), [sched/fd_dg_rebuilds], [sched/fd_rows_built] /
    [sched/fd_rows_cached] (force-row recomputes vs cache hits),
    [sched/fd_force_evals] (candidate forces actually recomputed) and,
    for the oracle, [sched/fd_ref_force_evals]. *)

open Hls_cdfg

val distribution :
  Depgraph.t -> asap:int array -> alap:int array -> cls:Op.fu_class -> deadline:int ->
  float array
(** Distribution graph for one class over steps [1..deadline] (index 0 of
    the result is step 1). This is the quantity plotted in Fig 5. *)

val schedule_dep :
  ?on_fix:(int -> int -> unit) ->
  ?pins:(int * int) list ->
  deadline:int -> Depgraph.t -> int array
(** Incremental kernel. [on_fix i s] observes each placement in decision
    order (used by the step-for-step differential tests).

    [pins] is a list of [(op index, step)] pairs fixed {e before} the
    balancing loop runs: a pinned op contributes its whole distribution
    weight at one step and clips its neighbours' time frames, which is
    how the refinement layer perturbs the distribution-graph priorities
    of a re-schedule. With [pins = []] the behaviour is unchanged.
    Raises [Invalid_argument] if [deadline] is below the critical path
    length, and for pins that are out of range, mutually
    conflicting, violate a dependence among themselves, or leave some
    unpinned op without a feasible step. *)

val schedule_dep_reference :
  ?on_fix:(int -> int -> unit) ->
  ?pins:(int * int) list ->
  deadline:int -> Depgraph.t -> int array
(** The seed implementation — recomputes frames, distribution graphs and
    all candidate forces after every placement. Produces exactly the
    same placement sequence as {!schedule_dep} (pins included); kept as
    the oracle for differential tests and benchmark baselines. *)
