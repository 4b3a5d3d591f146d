(** Transformational scheduling (the Yorktown Silicon Compiler style).

    Instead of constructing a schedule operation by operation, start from
    a default schedule and repeatedly apply local transformations:

    - [from_parallel_dep]: start with everything as early as possible (the
      YSC's "all operations in the same control step"), then, while some
      step is over capacity, displace the lowest-priority excess
      operations one step later and re-tighten their successors;
    - [from_serial_dep]: start maximally serial (one op per step, EXPL's
      default), then compact — repeatedly move each operation to the
      earliest step with both capacity and satisfied dependences,
      deleting steps that fall empty.

    Both directions converge to legal schedules; the benchmarks compare
    their quality against the constructive schedulers. *)

val from_parallel_dep : limits:Limits.t -> Depgraph.t -> int array
val from_serial_dep : limits:Limits.t -> Depgraph.t -> int array
