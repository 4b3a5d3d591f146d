(** Pipelined (modulo) scheduling — the paper's pointer to Park &
    Parker's Sehwa: "synthesis of pipelined data paths is a design domain
    which has now been characterized by a foundation of theory and
    implemented by the program Sehwa".

    A pipelined datapath restarts the block every [ii] control steps
    (the initiation interval). Two overlapping executions may not demand
    the same functional unit in the same cycle, so resource usage is
    counted modulo [ii]: an operation at step [s] loads slot
    [(s-1) mod ii]. Smaller [ii] = higher throughput = more units.

    [schedule ~limits ~ii] is modulo list scheduling; [min_ii] searches
    upward from the resource/recurrence lower bound for the smallest
    feasible interval. Blocks are assumed loop-free inside (no
    recurrences), which holds for every straight-line block the compiler
    emits; cross-iteration dependences through variables are the user's
    contract, as in Sehwa's functional pipelines. *)

open Hls_cdfg

type result = {
  schedule : Schedule.t;
  ii : int;  (** initiation interval actually achieved *)
  modulo_usage : (int * (Op.fu_class * int) list) list;
      (** per slot [0..ii-1], the steady-state per-class unit demand *)
}

val schedule : limits:Limits.t -> ii:int -> Dfg.t -> result option
(** Modulo list scheduling at a fixed initiation interval. [None] when
    the interval is infeasible under the limits (an op can never be
    placed). *)

val min_ii : limits:Limits.t -> Dfg.t -> result
(** Smallest feasible initiation interval (searches from the resource
    lower bound; always terminates because [ii = schedule length] is
    feasible). *)

val resource_min_ii : limits:Limits.t -> Dfg.t -> int
(** Classic resource-constrained lower bound:
    max over classes of ⌈ops-of-class / units-of-class⌉. *)

val throughput_table : Dfg.t -> (int * int * (Op.fu_class * int) list) list
(** Sehwa's cost/performance trade-off curve: for each initiation
    interval (ascending), the fewest general-purpose units admitting a
    modulo schedule, as (ii, latency, steady-state per-class demand).
    Rows that stop saving hardware are elided, so the curve is strictly
    decreasing in units. *)
