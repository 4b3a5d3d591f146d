(** Register-transfer-level datapath: the final structure of high-level
    synthesis — "a network of registers, functional units, multiplexers
    and buses, as well as hardware to control the data transfers in that
    network".

    Built from the schedule, the functional-unit allocation and the
    register allocation. Steering logic appears as per-state wire
    selections on functional-unit input ports and register inputs. Every
    operand, load and branch-condition wire reads the net
    {!Hls_alloc.Interconnect.resolve} names; the datapath only expands a
    free chain's root into its {!Wire.t} logic. The companion controller
    ({!Hls_ctrl.Fsm} / {!Hls_ctrl.Ctrl_synth}) drives the selections. *)

open Hls_cdfg

type reg_def = {
  rname : string;
  rwidth : int;
  rkind : [ `In_port | `Out_port | `Var | `Temp ];
}

type fu_def = { comp : Component.t; fwidth : int }

(** One functional-unit activation: unit [a_fu] performs [a_op] at type
    [a_ty] on the wire operands. Its state is its position in [acts]. *)
type activity = { a_fu : int; a_op : Op.t; a_ty : Hls_lang.Ast.ty; a_args : Wire.t list }

(** One register load; its state is its position in [loads]. *)
type load = { l_reg : string; l_wire : Wire.t }

(** The datapath stored the way the controller drives it: per state.
    Layout invariants, which {!build} establishes and the consumers read
    without re-checking:
    - [regs] is strictly ascending by name, so a position is a register
      id: {!register_index} binary-searches it (the simulators, lint's
      microcode image and {!Check}), the compiled simulator's register
      values and [Vcd]'s identifier codes are indexed by it,
      and a run's final register list comes out sorted by name;
    - [fus.(i)] is unit [i], the id [a_fu] and
      {!Wire.W_fu_out} name ({!Emit}, {!Estimate}, {!Check} and the
      simulators index unit tables by it);
    - [acts], [loads] and [conds] hold one entry per FSM state
      ({!Hls_ctrl.Fsm.n_states}); within a state, activations and loads
      keep construction order (block, then step, then node), which
      the simulators, {!Emit} and the microcode image (whose op select
      is the state's first activation) follow. *)
type t = {
  regs : reg_def array;
  fus : fu_def array;
  acts : activity array array;  (** activations per state *)
  loads : load array array;  (** register loads per state *)
  conds : Wire.t option array;  (** branch-condition wire per state *)
  fsm : Hls_ctrl.Fsm.t;
}

val build :
  ?node_bits:(int -> int -> int) ->
  ?lifetimes:Hls_alloc.Lifetime.t ->
  Hls_sched.Cfg_sched.t ->
  fu:Hls_alloc.Fu_alloc.t ->
  regs:Hls_alloc.Reg_alloc.t ->
  ports:(string * [ `In | `Out ] * Hls_lang.Ast.ty) list ->
  t
(** [node_bits bid nid] overrides the storage width of one node's value
    (default: the declared type width). The range analysis passes its
    inferred widths here to narrow variable/temp registers and functional
    units; ports always keep their declared widths, and simulation is
    width-blind (it evaluates at [Op.eval] precision), so narrowing is
    area-only and bit-identical by construction. [lifetimes] is the
    schedule's table, built here when absent. *)

val register_index : reg_def array -> string -> int
(** Position of the named register in a datapath's [regs] (binary
    search), [-1] if there is none. *)

val stats : t -> string
(** One-line summary: registers / units / activations. *)
