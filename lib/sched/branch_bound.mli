(** Exact resource-constrained scheduling by branch-and-bound (the
    improvement over EXPL's exhaustive search that the paper describes:
    "exhaustive search can be improved somewhat by using branch-and-bound
    techniques, which cut off the search along any path that can be
    recognized to be suboptimal").

    Operations are assigned in topological order; each partial schedule
    is pruned when (current step bound) + (remaining critical path)
    cannot beat the best complete schedule found so far. The initial
    incumbent is the list schedule, so the result is never worse than
    list scheduling, and an incumbent that already meets
    {!Depgraph.lower_bound} is returned without searching (nothing can
    be strictly shorter). Exponential in the worst case — intended for
    blocks up to a few dozen operations (tests use it as the optimum
    oracle). Search nodes are counted in [bb/nodes]. *)

val schedule_dep : ?node_cap:int -> limits:Limits.t -> Depgraph.t -> int array option
(** [None] when the block exceeds [node_cap] operations (default 24). *)
