(** Scheduling as a 0/1 mathematical program (Hafer & Parker's
    formulation, section 3.2.2 of the paper): one variable per
    (operation, control step) assignment, exactly-one selection per
    operation, precedence as forbidden pairs, resource limits as
    at-most-k sums over each step. Solved exactly with the
    {!Hls_util.Binprog} branch-and-bound; intended as the optimality
    oracle on small blocks (the heuristic schedulers cover the rest). *)

val feasible : limits:Limits.t -> deadline:int -> Depgraph.t -> int array option
(** A schedule of at most [deadline] steps as the solver's first
    solution, or [None] when none exists. Each call counts one
    [sched/ilp_deadlines] probe. *)

val schedule_dep : ?node_cap:int -> limits:Limits.t -> Depgraph.t -> int array option
(** Minimum-length schedule under the limits: {!feasible} at increasing
    deadlines from {!Depgraph.lower_bound}, since every shorter deadline
    is infeasible. [None] when the block exceeds [node_cap] operations
    (default 12). *)
