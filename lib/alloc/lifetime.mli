(** Value lifetime analysis over a scheduled CFG — the input to register
    allocation ("values that are generated in one control step and used
    in another must be assigned to storage"), and the one home of the
    question "which stored value is still needed at which step
    boundary".

    A {e stored value} is an entry read or a step-occupying operation's
    result. Free operations are wiring: consuming a free chain's output
    means the chain's underlying stored sources must still be readable,
    so consumption is attributed through the chain to those sources. The
    branch condition is consumed at the block's last step (the FSM
    transition samples it there).

    Each stored value is classified:
    - [In_variable v] — the value already lives in [v]'s register for its
      whole span (it is read from / written to [v] and [v] is not
      overwritten before the last use); costs no extra register;
    - [Temp iv] — the value must occupy a temporary register over the
      step boundaries [iv] (a closed interval: held from the end of step
      [lo] through the start of step [hi + 1]);
    - [No_storage] — never crosses a step boundary. *)

open Hls_cdfg

type storage =
  | In_variable of string
  | Temp of Hls_util.Interval.t
  | No_storage

type value_info = {
  nid : Dfg.nid;
  produced : int;  (** producing step; 0 for entry values *)
  last_use : int;  (** last step the value is consumed; [produced] if unused *)
  storage : storage;
}

val analyze :
  Hls_sched.Schedule.t -> term_cond:Dfg.nid option -> value_info list
(** Analyze one scheduled block. [term_cond] is the branch condition (if
    the block ends in a conditional branch). Values are listed in node-id
    order. *)

val branch_condition : Cfg.t -> Cfg.bid -> Dfg.nid option
(** The condition a block's terminator samples at its last step. *)

(** {2 The table of a scheduled CFG}

    Every block analyzed once, with its own branch condition. Allocation,
    binding, the live-storage bound and refinement all read it; build it
    once per pass over a schedule. It is never part of a design. *)

type t

val table : Hls_sched.Cfg_sched.t -> t

val schedule : t -> Hls_sched.Cfg_sched.t
(** The scheduled CFG the table was built from. *)

val values : t -> Cfg.bid -> value_info list
(** The block's stored values, in node-id order. *)

val storage : t -> Cfg.bid -> Dfg.nid -> storage
(** Classification of one node; [No_storage] for nodes that are not
    stored values (constants, free operations, writes). *)

type interference

val vars : interference -> string array
(** Every variable read or written, ascending. *)

val conflict : interference -> int -> int -> bool
(** [conflict ix i j]: variables [i] and [j] of {!vars} may not share a
    register. *)

val interference : t -> outputs:string list -> interference
(** The variable conflict relation register sharing is decided on.
    [outputs] are live at program exit.

    Step boundary [k] of a block lies between its steps [k] and [k + 1];
    boundary 0 is block entry and boundary [n_steps] block exit. In each
    block a variable's register is {e occupied}:
    - at boundary 0 when the variable is live into the block
      ({!Hls_cdfg.Liveness});
    - over [[produced, last_use - 1]] of each [In_variable] value it
      holds;
    - over [[0, lo - 1]] of an entry read that an overwrite moved to a
      temporary [Temp { lo; _ }];
    - at the boundary each of its writes latches at;
    - from its last write (boundary 0 if none) through exit when it is
      live out of the block.

    Two variables conflict when their registers are occupied at one
    boundary of one block. The write term keeps two variables written
    in the same step apart (a register latches one value per cycle);
    the entry and exit terms carry block-boundary liveness. *)

val temps : value_info list -> (Dfg.nid * Hls_util.Interval.t) list
(** Just the values needing temporary registers. *)
