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

type fu_def = { fuid : int; comp : Component.t; fwidth : int }

(** One functional-unit activation: in [state], unit [fu] performs [op]
    at type [ty] on the wire operands. *)
type activity = { a_state : int; a_fu : int; a_op : Op.t; a_ty : Hls_lang.Ast.ty; a_args : Wire.t list }

type load = { l_state : int; l_reg : string; l_wire : Wire.t }

type t = {
  regs : reg_def list;
  fus : fu_def list;
  activities : activity list;
  loads : load list;
  conds : (int * Wire.t) list;  (** branch-condition wire per deciding state *)
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

val registers : t -> reg_def array
(** The register definitions ascending by name. *)

val register_index : reg_def array -> string -> int
(** Position of the named register in {!registers}' array (binary
    search), [-1] if there is none. *)

val units : t -> fu_def option array
(** Unit definitions indexed by unit id (the first of a repeated id). *)

val activities_in : t -> int -> activity list
(** Activations of a state. *)

val loads_in : t -> int -> load list

val cond_wire : t -> int -> Wire.t option

(** Per-state view of activations, loads and branch conditions, built in
    one pass over the datapath. {!activities_in}/{!loads_in}/{!cond_wire}
    scan the whole design per query; a simulator executing millions of
    cycles builds an index once and reads arrays. *)
type index

val index : t -> index

val acts_at : index -> int -> activity array
(** Activations of a state, in {!activities_in} order. *)

val loads_at : index -> int -> load array
(** Loads of a state, in {!loads_in} order. *)

val cond_at : index -> int -> Wire.t option

val stats : t -> string
(** One-line summary: registers / units / activations. *)
