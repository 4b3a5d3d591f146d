(** List scheduling (Fig 4).

    Steps are filled in order; at each step the ready operations (all
    predecessors scheduled in earlier steps) are taken from a priority
    list and placed while resources remain; the rest are deferred. The
    priority function is pluggable:

    - [Path_length] — ops on the longest chain to the end of the block
      (BUD's priority; the paper's Fig 4 example);
    - [Urgency deadline] — distance to the nearest deadline, i.e. the
      ALAP step (Elf and ISYN's priority; smaller = more urgent);
    - [Mobility deadline] — ALAP − ASAP slack (smaller first);
    - [Fifo] — specification order, degenerating to resource-constrained
      ASAP (for comparison). *)

type priority =
  | Path_length
  | Urgency of int
  | Mobility of int
  | Fifo

val schedule_dep : ?priority:priority -> limits:Limits.t -> Depgraph.t -> int array
(** Step assignment over dependence-graph indices (default priority
    [Path_length]). In-degree counting
    feeds ready operations through a priority queue, so each step costs
    O(ready log ready) instead of the naive O(n) readiness rescan. *)

val schedule_dep_reference :
  ?priority:priority -> limits:Limits.t -> Depgraph.t -> int array
(** The straightforward rescan-and-resort implementation (the seed
    code). Produces bit-identical schedules to {!schedule_dep}; kept as
    the oracle for differential tests and benchmark baselines. *)
