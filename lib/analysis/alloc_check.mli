(** Allocation and binding soundness: functional-unit grouping, register
    sharing and interconnect completeness.

    The entry points take the allocation results in decomposed form
    (lookup functions and plain lists rather than only the abstract
    allocator outputs) so tests can inject known-bad bindings and
    assert the exact rule that fires.

    Rules:
    - [ALLOC001] (error) — an operation is bound to a unit of a
      different functional-unit class;
    - [ALLOC002] (error) — two operations on one unit execute in the
      same (block, step) slot;
    - [ALLOC003] (error) — a step-occupying operation of the schedule
      is bound to no unit;
    - [ALLOC004] (error) — a unit's operation record disagrees with the
      schedule about the operation's control step (stale binding);
    - [ALLOC005] (error) — two temporaries with overlapping lifetimes
      share a temp-register track in one block;
    - [ALLOC006] (error) — a value classified as needing a temporary
      register has no track;
    - [ALLOC007] (error) — two variables that must both hold a value at
      one step boundary of a block share a register. The boundaries are
      derived from the schedule (each entry read's consumer steps through
      free chains, write steps) and block liveness, independently of the
      allocator's {!Hls_alloc.Lifetime} table;
    - [ALLOC008] (error) — two variables written in the same control
      step share a register (one latch per register per cycle);
    - [ALLOC009] (error) — a data transfer required by the
      schedule/binding is missing from the interconnect (incomplete
      communication path);
    - [ALLOC010] (warning) — the interconnect carries a transfer the
      design never performs. *)

val rules : (string * string) list

val check_fu : Hls_sched.Cfg_sched.t -> Hls_alloc.Fu_alloc.t -> Diagnostic.t list
(** [ALLOC001]–[ALLOC004]. *)

val check_registers :
  Hls_sched.Cfg_sched.t ->
  temp_track:(Hls_cdfg.Cfg.bid -> Hls_cdfg.Dfg.nid -> int option) ->
  groups:string list list ->
  outputs:string list ->
  Diagnostic.t list
(** [ALLOC005]–[ALLOC008]. [temp_track] and [groups] are
    {!Hls_alloc.Reg_alloc.temp_track} and
    {!Hls_alloc.Reg_alloc.variable_groups} of a real allocation (or
    mutated versions under test); [outputs] lists the output ports,
    live at program exit, as given to the register allocator. *)

val check_transfers :
  Hls_sched.Cfg_sched.t ->
  fu:Hls_alloc.Fu_alloc.t ->
  regs:Hls_alloc.Reg_alloc.t ->
  Hls_alloc.Interconnect.transfer list ->
  Diagnostic.t list
(** [ALLOC009]–[ALLOC010]: diff the given transfer list against the
    transfers the schedule and bindings imply. *)
