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
    {!frames} with nothing fixed. Computed once by {!of_dfg}; each call
    returns a fresh copy. *)

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

val asap_fits : limits:Limits.t -> t -> bool
(** Whether the block's {!asap} schedule, computed once by {!of_dfg},
    respects [limits]: {!Limits.step_within} at every step. [Unlimited]
    always fits.

    When it fits, every resource-constrained kernel returns exactly the
    {!asap} steps, so the ASAP schedule can stand in for a kernel run:
    - ASAP ([Asap.schedule_dep]) and both list schedulers
      ([List_sched.schedule_dep], path length or mobility priority):
      every op is ready at its ASAP step, and the ops placed there
      before it are a subset of that step's ASAP occupants, so it fits
      ({!Limits.fits} and {!Limits.step_within} read the one cap of the
      class);
    - branch-and-bound ([Branch_bound.schedule_dep], and its list
      fallback above the node cap): the list incumbent is ASAP, of
      {!critical_length} steps, and {!resource_bound} is no larger
      (each of those steps holds at most a cap's operations), so the
      incumbent meets {!lower_bound} and is returned without a search;
    - 0/1 programming ([Ilp_sched.schedule_dep]): the deadline search
      starts at {!lower_bound}, here the critical length, and
      {!Hls_util.Binprog.solve} tries each operation's placements
      earliest first, so its first leaf is ASAP, feasible, and final
      (no objective to improve);
    - transformational/parallel ([Transformational.from_parallel_dep]):
      it starts at ASAP and finds no over-full step;
    - transformational/serial ([Transformational.from_serial_dep]): its
      first sweep moves each op, in index order, from its serial step
      to its ASAP step (the ops already there are ASAP occupants with a
      smaller index), the second sweep moves nothing, and ASAP leaves
      no empty step to compact.

    Force-directed and freedom-based scheduling ignore the limits and
    place operations elsewhere. *)

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
