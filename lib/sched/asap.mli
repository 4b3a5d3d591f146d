(** As-soon-as-possible scheduling (Fig 3).

    Operations are taken in the topological order given by the
    specification and each is put into the earliest control step allowed
    by its dependences and the resource limits. No priority is given to
    critical-path operations, so under tight limits a non-critical
    operation scheduled first can block a critical one — the
    suboptimality the paper illustrates and list scheduling fixes. *)

val schedule_dep : limits:Limits.t -> Depgraph.t -> int array
(** Op-indexed steps. Under [Limits.Unlimited] this is the maximally
    parallel schedule, {!Depgraph.asap}. *)
