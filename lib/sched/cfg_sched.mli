(** Whole-program schedule: one {!Schedule.t} per basic block.

    The total latency weights each block's step count by its static
    execution frequency (loop trip counts), reproducing the paper's
    arithmetic: sqrt unoptimized serial = 3 + 4·5 = 23 control steps;
    optimized on two functional units = 2 + 4·2 = 10. *)

open Hls_cdfg

type t

val init : ?freq:int array -> Cfg.t -> (Cfg.bid -> Schedule.t) -> t
(** Schedule every block [bid] with [f bid] (e.g.
    [fun bid -> Depgraph.block kernel (Cfg.dfg cfg bid)]). Bumps
    [sched/ops_scheduled] by the schedules' step-occupying operation
    count and [sched/steps]. [freq] is the CFG's
    {!Hls_cdfg.Cfg.exec_frequencies} when the caller already has them
    (computed here otherwise); the schedule keeps them. *)

val cfg : t -> Cfg.t

val frequencies : t -> int array
(** The CFG's static block execution frequencies
    ({!Hls_cdfg.Cfg.exec_frequencies}), indexed by block id. *)

val block_schedule : t -> Cfg.bid -> Schedule.t

val with_block : t -> Cfg.bid -> Schedule.t -> t
(** A copy of the whole-program schedule with one block's schedule
    replaced — the surgical update the refinement loop uses to
    re-schedule a critical block without touching the rest. Bumps no
    counters; the replacement schedule must be over the same block's
    DFG. *)

val digest : t -> string
(** Content digest over all block schedules ({!Schedule.add_key} of
    each, in block order). Equal digests on the same CFG mean every
    operation is placed in the same step. *)

val compute_steps : t -> int
(** Σ over blocks with at least one step-occupying operation of
    (steps × execution frequency) — the number the paper quotes. *)

val total_states : t -> int
(** Σ over all blocks of their step count: the FSM state count,
    including empty join/exit states. *)

val verify : Limits.t -> t -> (unit, string) result
(** {!Schedule.verify} on every block. *)

val pp : Format.formatter -> t -> unit
