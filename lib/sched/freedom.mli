(** Freedom-based scheduling (Parker's MAHA).

    The critical path is scheduled first (at its unique steps). The
    remaining operations are then placed one at a time in order of
    increasing freedom — the width of the control-step range still open
    to them — so that the operations most at risk of being blocked are
    handled before their options disappear. Each placement picks the step
    within the current range that adds the least functional-unit cost
    (no new unit if an existing one of the class is idle in that step).
    The result meets the critical-path deadline; the implied unit counts
    are the allocation. *)

val schedule_dep : ?deadline:int -> Depgraph.t -> int array
(** [deadline] defaults to the critical path length. *)
