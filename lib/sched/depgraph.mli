(** Dependence graph over the step-occupying operations of a block.

    Free operations (constant shifts, zero-detects, muxes) and entry
    values are dissolved into direct edges between the occupying
    operations they connect, so every scheduler sees a plain unit-delay
    DAG. Operation indices are dense [0 .. n-1], topologically ordered. *)

open Hls_cdfg

type t

val of_dfg : Dfg.t -> t

val n_ops : t -> int
val nid_of : t -> int -> Dfg.nid
(** DFG node id of an operation index. *)

val index_of : t -> Dfg.nid -> int
(** Inverse of {!nid_of}. Raises [Not_found] for non-occupying nodes. *)

val preds : t -> int -> int list
val succs : t -> int -> int list
val cls : t -> int -> Op.fu_class

val frames : t -> deadline:int -> fixed:int option array -> int array * int array
(** Constrained ASAP/ALAP time frames, the one definition every
    time-constrained scheduler reads. An op with [fixed.(i) = Some s]
    has the frame [s, s]; any other op's ASAP is one past its
    predecessors' ASAP steps and its ALAP one before its successors'
    ALAP steps (at most [deadline]), so a fixed op clips its
    neighbours' frames. No feasibility check: a frame may come out
    empty (ASAP above ALAP) when the fixed steps or the deadline leave
    an op no room. *)

val asap : t -> int array
(** As-soon-as-possible step of each op (1-based): the ASAP half of
    {!frames} with nothing fixed. *)

val alap : t -> deadline:int -> int array
(** As-late-as-possible steps, anchored so every op finishes by
    [deadline]: the ALAP half of {!frames} with nothing fixed. Raises
    [Invalid_argument] if the deadline is shorter than the critical
    path. *)

val critical_length : t -> int
(** Length of the longest dependence chain (minimum possible schedule
    length); 0 when the block has no occupying operation. *)

val resource_bound : limits:Limits.t -> t -> int
(** Classic resource-constrained lower bound on the schedule length
    (and on a modulo schedule's initiation interval): the maximum over
    classes of ⌈ops of the class / units of the class⌉, with the whole
    op count over the shared budget for [Serial] and [Total k]; at
    least 1. *)

val binding_limits : limits:Limits.t -> t -> Limits.t
(** The part of [limits] that can bind on this block, canonically: a
    cap at least the number of operations it constrains is dropped —
    [Total k] with [k >=] {!n_ops}, [Serial] on at most one operation,
    and a class's caps when each is at least the block's operations of
    that class — and nothing left reads as [Unlimited]; a single cap on
    the class of every operation reads as [Total k], and [Total 1] as
    [Serial].

    Every scheduler kernel schedules the block under [limits] exactly
    as under [binding_limits ~limits]. They read limits only through
    {!Limits.fits} and {!Limits.step_within} (a cap not below the
    operations it counts always answers yes), {!resource_bound} and
    {!lower_bound} (such a cap contributes 1), and the 0/1 program's
    per-step {!Hls_util.Binprog.at_most} rows (a row holds at most one
    variable per operation, so it is never violated, and
    {!Hls_util.Binprog.solve} branches on groups only, so its search
    visits the same nodes with or without the row). Where every
    operation is of one class, that class's cap counts exactly what a
    total counts, and builds the same 0/1 rows. A schedule may therefore
    be shared between limits with equal binding parts. *)

val lower_bound : limits:Limits.t -> t -> int
(** [max (critical_length t) (resource_bound ~limits t)]: no schedule
    of the block under the limits is shorter. The exact schedulers
    start their search here. *)

val path_length : t -> int array
(** Ops on the longest chain from each op to a sink, inclusive — the
    list-scheduling priority of Fig 4. *)

val occupancy : t -> steps:int array -> Limits.occupancy
(** Step occupancy of a complete op-indexed step assignment. *)

val to_schedule : t -> steps:int array -> Schedule.t
(** Wrap an op-indexed step assignment into a {!Schedule.t}. *)

val block : (t -> int array) -> Dfg.t -> Schedule.t
(** [block kernel g] runs a scheduler kernel on [g]'s dependence graph
    and wraps its steps: the one adapter from a [*_dep] kernel to a
    block schedule (e.g. [block (List_sched.schedule_dep ~limits)]). *)
