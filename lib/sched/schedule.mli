(** Schedule of one basic block: an assignment of step-occupying
    operations to control steps (1-based).

    Step conventions:
    - [Const]/[Read] values exist from step 0 (available at block entry);
    - a step-occupying operation executes in its assigned step and its
      result is usable by other occupying operations from the next step;
    - free operations (constant shifts, zero-detect, mux) chain
      combinationally: their value is produced in the same step as their
      latest occupying ancestor;
    - a [Write] of a computed value latches at the end of its producer's
      step; a [Write] that is a register move occupies a step like any
      ALU operation.

    A block always takes at least one control step (its FSM state). *)

open Hls_cdfg

type t

val make : Dfg.t -> steps:(Dfg.nid -> int) -> t
(** Build from an assignment of steps to the block's step-occupying
    nodes. [steps] is consulted only for nodes with
    {!Dfg.occupies_step}; raises [Invalid_argument] on a step < 1. *)

val dfg : t -> Dfg.t

val digest : t -> string
(** Content digest of the step assignment. Two schedules of the same
    DFG digest equally iff they place every operation identically. *)

val add_key : Buffer.t -> t -> unit
(** Append the self-delimiting encoding of the step assignment that
    {!digest} hashes. {!Cfg_sched.digest} hashes the blocks' encodings
    in one pass — the key the DSE engine uses to share backend results
    between option points whose schedules coincide. *)

val step_of : t -> Dfg.nid -> int
(** Step of a step-occupying node. Raises [Invalid_argument] for
    non-occupying nodes (use {!producer_step}). *)

val producer_step : t -> Dfg.nid -> int
(** Step in which the node's value is produced: 0 for entry values,
    the assigned step for occupying operations, the latest occupying
    ancestor's step for free chains (0 if the chain hangs off entry
    values only). *)

val write_step : t -> Dfg.nid -> int
(** Control step at which a [Write] node latches (at least 1). *)

val n_steps : t -> int
(** Number of control steps the block occupies (at least 1). *)

val n_ops : t -> int
(** Number of step-occupying operations. *)

val occupancy : t -> Limits.occupancy
(** Step occupancy of the block's step-occupying operations, built in
    one pass over the nodes. *)

val fu_requirement : t -> (Op.fu_class * int) list
(** For each class, the maximum concurrent use over all steps — the
    number of functional units the schedule implies (force-directed
    scheduling's objective). *)

val by_step : t -> Dfg.nid list array
(** The step-occupying operations of each step, ascending, indexed by
    step [0 .. n_steps] (row 0 is empty): one pass over the nodes, for
    callers that scan every step. *)

val verify : Limits.t -> t -> (unit, string) result
(** Check data dependences (every occupying operation starts strictly
    after its operands' producing steps) and resource limits in every
    step. *)

val pp : Format.formatter -> t -> unit
(** Tabular rendering: one line per step with its operations, free
    chained operations shown on their producer's step. *)
