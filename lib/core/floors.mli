(** The schedule-free parts of {!Explore.Bound}: area and delay floors
    that depend on an optimized CFG and the operations' storage widths,
    never on a schedule. {!Flow.midend} builds them once at declared
    widths ({!Flow.optimized}[.o_floors]); a narrowed bound builds them
    at the range-inferred widths. Every figure underestimates what any
    backend completion of any schedule of the CFG pays. *)

open Hls_cdfg

type node_w = Dfg.t -> Cfg.bid -> Dfg.nid -> int
(** An operation's storage width: the declared type width, or the
    range-inferred width under [narrow] — what
    {!Hls_rtl.Datapath.build} binds. *)

(** One functional-unit class's operand-steering table, over the whole
    CFG. *)
type cls_floor = {
  cls : Op.fu_class;
  min_w : int;  (** the class's narrowest operation width *)
  wires : int list;
      (** per argument position: the distinct constant operands there
          (each a dedicated wire) plus one when any operand there is
          computed or register-borne (those may all merge) *)
}

(** A block's per-operation area table, the input of the schedule's
    per-step floors. *)
type block = {
  op_class : int array;
      (** by node id: the index of the operation's class in
          {!Hls_cdfg.Op.occupying_classes}, or [-1] for a node that
          takes no step *)
  op_area : int array;  (** by node id: the cheapest component at the operation's width *)
  unit_area : int array;
      (** by class index: the cheapest component at the block's
          narrowest width of the class; 0 when the block has none *)
  reg_area : int array;  (** by node id: a register as wide as the node's value *)
}

type t = {
  port_names : string list;
  port_reg_area : int;
      (** registers of every port read or written in the CFG — ports are
          never shared (and never narrowed), so these exist at their
          declared widths at every step boundary *)
  reg_mux_area : int;
      (** register-input steering floor: every distinct constant
          assigned to a variable is a distinct wire on its register's
          load mux (plus one wire when any assignment is computed). Port
          registers are dedicated, so their demands add; non-port
          variables may share registers, so only the largest single
          demand counts *)
  cycle_ns : float;
      (** register read + one mux level + the slowest operation's
          cheapest class component *)
  classes : cls_floor list;  (** classes with at least one operation *)
  blocks : block array;  (** indexed by block id *)
}

val class_index : Op.fu_class -> int
(** The class's index in {!Hls_cdfg.Op.occupying_classes}; [-1] for a
    class that takes no step. *)

val make :
  node_w:node_w -> ports:(string * Hls_lang.Ast.ty) list -> Hls_alloc.Cfg_facts.t -> t
(** [ports] are the program's ports with their declared types. *)

val fu_area : t -> class_floor:(Op.fu_class -> int) -> int
(** Coupled functional-unit + operand-steering floor, summed over
    classes. With [U] units of a class, its wires at position [p] split
    across at most [U] port-[p] muxes, and mux area is linear in inputs
    beyond the first, so the inputs the splitting cannot absorb cost
    [mux_area (D - U + 1)] at the class's narrowest width. More units
    shrink the muxes but each costs at least the cheapest component, so
    the class's floor is the minimum over [U] of the coupled sum; the
    unit term is at least [class_floor cls] (a schedule's peak demand,
    or 0 for a floor that holds under any schedule). *)
