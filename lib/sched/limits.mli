(** Resource limits on functional units, the constraint side of
    resource-constrained scheduling.

    - [Serial] — one step-occupying operation per control step: the
      paper's "trivial special case [that] uses just one functional unit
      and one memory" (each operation in its own step).
    - [Total k] — at most [k] concurrent operations per step, on [k]
      general-purpose functional units; [Total 2] is the paper's "two
      functional units" configuration for the optimized sqrt (free shifts
      and zero-detects do not count).
    - [Classes l] — at most [n] concurrent operations of each listed
      functional-unit class (e.g. one ALU and one multiplier); unlisted
      classes are unconstrained.
    - [Unlimited] — no constraint (time-constrained or maximally parallel
      scheduling). *)

open Hls_cdfg

type t = Serial | Total of int | Classes of (Op.fu_class * int) list | Unlimited

val can_add : t -> counts:(Op.fu_class * int) list -> Op.fu_class -> bool
(** Whether one more operation of the class fits in a step currently
    running [counts] (per-class tallies of step-occupying operations
    already placed there). Free and non-executing classes always fit. *)

val within : t -> counts:(Op.fu_class * int) list -> bool
(** Whether a step's tallies respect the limits. These two are the
    semantics on explicit count lists, which the reference oracles use;
    schedulers ask a {!occupancy}. *)

(** {2 Step occupancy}

    The per-step, per-class tally of placed operations that every
    resource-constrained scheduler asks "does one more operation of
    class [c] fit at step [s]?". Steps are any non-negative integers
    (a modulo scheduler passes its slots); the tally grows on demand and
    reads 0 at steps never touched. {!fits} and {!step_within} answer
    exactly what {!can_add} and {!within} answer on the step's
    {!step_counts}. *)

type occupancy

val occupancy : unit -> occupancy
(** An empty tally. *)

val occupy : occupancy -> step:int -> Op.fu_class -> unit
(** Count one more operation of the class at the step. Raises
    [Invalid_argument] on a negative step. *)

val vacate : occupancy -> step:int -> Op.fu_class -> unit
(** Undo one {!occupy} (backtracking, moving an operation). *)

val occupied : occupancy -> step:int -> Op.fu_class -> int
(** Operations of the class counted at the step. *)

val fits : t -> occupancy -> step:int -> Op.fu_class -> bool
(** Whether one more operation of the class fits at the step. *)

val step_within : t -> occupancy -> step:int -> bool
(** Whether the step's tally respects the limits. *)

val step_counts : occupancy -> step:int -> (Op.fu_class * int) list
(** The step's nonzero per-class tallies, in class declaration order. *)

val peak : occupancy -> (Op.fu_class * int) list
(** Per class, the largest tally over all steps (classes never counted
    omitted), in class declaration order. *)

val to_string : t -> string

val serial : t
val two_fu : t
(** [Serial] and [Total 2] — the two configurations of the paper's Fig 2
    schedule-length comparison. *)
