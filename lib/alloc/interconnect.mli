(** Interconnect (communication-path) allocation: multiplexer sizing and
    bus allocation ("communication paths, including buses and
    multiplexers, must be chosen so that the functional units and
    registers are connected as necessary to support the data transfers
    required by the specification and the schedule").

    A {e transfer} is one physical data movement implied by the design:
    a net driving a functional-unit input port in the step the unit
    reads it, or a net latched into a (variable or temporary) register.
    With point-to-point wiring, each destination with more than one
    distinct source net needs a
    multiplexer ({!mux_cost} counts total extra mux inputs). With buses
    — "distributed multiplexers" — transfers that never occur in the
    same control step (or that carry the same source) can share one bus;
    {!bus_allocation} clique-partitions the transfers accordingly. *)

open Hls_cdfg

(** {2 The resolver}

    The wiring has one home: {!resolve} answers which physical net
    drives a value when it is read at a given control step. The
    transfer list below and the datapath ({!Hls_rtl.Datapath.build})
    both read every functional-unit operand, register latch and
    branch-condition wire through it, so the interconnect this module
    costs is the one the datapath builds and the estimate prices. *)

(** A physical net, named as the datapath names it. *)
type wire =
  | W_fu_out of int
      (** output of functional unit [id]; a value is read from it only in
          its producing step *)
  | W_reg of string
      (** register output: a variable group's register
          ({!Reg_alloc.register_of_var}) or a temporary
          ({!Reg_alloc.temp_register}, [tmpN]) *)
  | W_const of int  (** one net per constant value *)
  | W_wire of Cfg.bid * Dfg.nid
      (** root of a combinational free chain (constant shift, zero
          detect, value mux); the datapath expands it into logic over the
          nets its operands resolve to at the same step *)

(** A destination port. *)
type dest =
  | D_fu_in of int * int  (** functional unit, input position *)
  | D_reg of string  (** register input, by {!W_reg}'s name *)

type resolver

val resolver :
  ?lifetimes:Lifetime.t -> Hls_sched.Cfg_sched.t -> fu:Fu_alloc.t -> regs:Reg_alloc.t -> resolver
(** Reads the schedule's lifetime table [lifetimes] (built here when
    absent); every {!resolve} reads it. *)

val resolve : resolver -> Cfg.bid -> Dfg.nid -> step:int -> wire
(** The net driving value [nid] of block [bid] when it is read at
    [step]:
    - a constant is {!W_const};
    - a step-occupying operation is its unit's output in its producing
      step, and afterwards the register holding it (its variable's, or
      its temporary);
    - an entry read is its variable's register, until an overwrite has
      moved it to a temporary: from the step after the move it is read
      from the temporary;
    - a free operation is its own {!W_wire} root.

    Raises [Invalid_argument] for a write (not a value) and for a
    computed value read after its producing step that has no storage. *)

val latches : resolver -> Cfg.bid -> (string * Dfg.nid * int) list
(** The register loads of a block, each as (register, value latched,
    step): every variable write at its write step, then every temporary
    at the step it is latched in, in node-id order. *)

(** {2 Transfers} *)

type transfer = { t_src : wire; t_dst : dest; t_bid : Cfg.bid; t_step : int }

val transfers :
  ?lifetimes:Lifetime.t ->
  Hls_sched.Cfg_sched.t ->
  fu:Fu_alloc.t ->
  regs:Reg_alloc.t ->
  transfer list
(** All data transfers of the design, in block order: each block's
    functional-unit operands, then its {!latches}. *)

val mux_cost : transfer list -> int
(** Σ over destinations of [max 0 (distinct sources − 1)]: total 2-input
    multiplexer equivalents for point-to-point interconnect. Equal to
    the extra mux inputs {!Hls_rtl.Estimate} prices on the datapath. *)

val bus_allocation : transfer list -> transfer list list * int
(** Clique partition of transfers onto buses; returns the groups and the
    bus count. Two transfers may share a bus iff they occur in different
    (block, step) slots or carry the same source. *)

val wire_to_string : wire -> string
(** The net's name in the emitted design: [fuN_out], a register name, a
    constant's value; a free chain prints as [wire bB.%N]. *)

val dest_to_string : dest -> string
(** [fuN.P] for an operand port, the register name for a latch. *)

val pp_summary : Format.formatter -> transfer list -> unit
