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

val asap : t -> int array
(** Unconstrained as-soon-as-possible step of each op (1-based). *)

val alap : t -> deadline:int -> int array
(** Unconstrained as-late-as-possible steps, anchored so every op
    finishes by [deadline]. Raises [Invalid_argument] if the deadline is
    shorter than the critical path. *)

val critical_length : t -> int
(** Length of the longest dependence chain (minimum possible schedule
    length); 0 when the block has no occupying operation. *)

val resource_bound : limits:Limits.t -> t -> int
(** Classic resource-constrained lower bound on the schedule length
    (and on a modulo schedule's initiation interval): the maximum over
    classes of ⌈ops of the class / units of the class⌉, with the whole
    op count over the shared budget for [Serial] and [Total k]; at
    least 1. *)

val lower_bound : limits:Limits.t -> t -> int
(** [max (critical_length t) (resource_bound ~limits t)]: no schedule
    of the block under the limits is shorter. The exact schedulers
    start their search here. *)

val path_length : t -> int array
(** Ops on the longest chain from each op to a sink, inclusive — the
    list-scheduling priority of Fig 4. *)

val to_schedule : t -> steps:int array -> Schedule.t
(** Wrap an op-indexed step assignment into a {!Schedule.t}. *)
