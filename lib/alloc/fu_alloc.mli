(** Functional-unit allocation: grouping step-occupying operations onto
    shared functional units.

    Two operations can share a unit iff the unit class can execute both
    and they never execute simultaneously — different control steps, or
    different basic blocks (blocks are mutually exclusive in time).

    Two technique families from section 3.2 of the paper:
    - {!by_clique} — global: clique partitioning of the compatibility
      graph (Fig 7);
    - {!greedy} — iterative/constructive: operations are assigned in
      control-step order; with [`Min_mux] selection each op goes to the
      compatible free unit whose input connections grow the least
      (Fig 6's "a2 was assigned to adder2 since the increase in
      multiplexing cost was zero"); with [`First_fit] it goes to the
      first free unit, ignoring interconnect. *)

open Hls_cdfg

type op_ref = {
  bid : Cfg.bid;
  nid : Dfg.nid;
  cls : Op.fu_class;
  step : int;  (** control step within the block *)
}

(** Where an operand comes from, as greedy [`Min_mux] selection costs
    it while units are still being chosen: step-blind (a stored value
    has one source at every step it is read, even the step that
    produces it) and before register sharing (a variable is its own
    name). It steers allocation only; the design's wiring is
    {!Interconnect.resolve}'s. *)
type source =
  | From_var of string  (** a variable's register *)
  | From_const of int
  | From_temp of Cfg.bid * Dfg.nid  (** temp register of a producing value *)
  | From_wire of Cfg.bid * Dfg.nid  (** output of a free (wiring) node *)

type instance = { fu_id : int; fu_cls : Op.fu_class; ops : op_ref list }

type t = {
  instances : instance list;
  units : int array array;
      (** op → unit id, per block and node ([-1]: not allocated), as
          data (not a closure) so an allocation can be marshalled into
          the persistent design cache; query it through {!of_op} *)
}

val make : Hls_sched.Cfg_sched.t -> instance list -> t
(** An allocation of the scheduled program's operations onto the given
    units (a later instance wins an operation listed twice). *)

val of_op : t -> Cfg.bid -> Dfg.nid -> int
(** Unit id the operation was allocated to. Raises [Invalid_argument]
    for an operation outside the allocation. *)

val collect : ?lifetimes:Lifetime.t -> Hls_sched.Cfg_sched.t -> op_ref list
(** All step-occupying operations of the scheduled program, in (block,
    step, node) order; [lifetimes], the schedule's table, supplies its
    step grouping. *)

val by_clique : ?lifetimes:Lifetime.t -> Hls_sched.Cfg_sched.t -> t
(** One clique partition per functional-unit class. *)

val greedy :
  ?selection:[ `Min_mux | `First_fit ] -> ?lifetimes:Lifetime.t -> Hls_sched.Cfg_sched.t -> t
(** Constructive allocation in step order (default [`Min_mux]).
    [lifetimes] is the schedule's table, built here when absent. *)

val n_units : t -> int

val source_of : Lifetime.t -> Cfg.bid -> Dfg.nid -> source
(** Greedy's pre-binding source of an operand, per the lifetime table. *)

val mux_inputs : Hls_sched.Cfg_sched.t -> t -> int
(** Total extra multiplexer inputs implied by the unit binding over
    {!source}s: for every unit input port, [max 0 (distinct sources - 1)]
    — the cost greedy [`Min_mux] minimizes. The design's priced mux cost
    is {!Interconnect.mux_cost}. *)

val pp : Format.formatter -> t -> unit
