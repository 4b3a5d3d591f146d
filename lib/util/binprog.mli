(** Tiny 0/1 (pseudo-boolean) constraint solver — the substrate for the
    paper's mathematical-programming formulations (Hafer & Parker):
    "creating a variable for each possible assignment of an operation,
    register or interconnection to a hardware element. The variable is
    one if the assignment is made and zero if it is not."

    The model is a set of {e selection groups} (exactly one variable of
    each group is 1 — one assignment per element), side constraints
    (at-most-k sums, implications, forbidden combinations) and a linear
    objective to minimize. Solving is exact branch-and-bound over the
    groups; intended for the small instances where exhaustive search is
    honest ("finding an optimal solution requires exhaustive search,
    which is very expensive ... so that larger examples can be
    considered" — heuristics cover those). *)

type t
type var = int

val create : unit -> t

val new_var : t -> var
(** A fresh 0/1 variable, numbered from 0 in creation order. *)

val n_vars : t -> int

val add_group : t -> var list -> unit
(** Exactly one of the variables is 1. Every variable must belong to
    exactly one group (free variables can form singleton... a variable in
    no group is treated as an independent 0/1 decision searched last). *)

val at_most : t -> int -> var list -> unit
(** Σ variables ≤ k. *)

val implies : t -> var -> var -> unit
(** first = 1 ⇒ second = 1. *)

val forbid_pair : t -> var -> var -> unit
(** Not both 1. *)

val solve : ?objective:(var * int) list -> t -> (var -> bool) option
(** Exact search: returns an assignment satisfying all constraints and
    minimizing the objective (sum of weights of true variables), or
    [None] if unsatisfiable. Deterministic. Exponential in the worst
    case; guarded by a node budget — raises [Invalid_argument] when the
    instance exceeds roughly 10⁷ search nodes. Adds the nodes it
    visited to the [binprog/nodes] counter. *)
