(** Variable liveness over the CFG (backward dataflow fixpoint).

    A variable is {e used} by a block if the block contains a [Read] of it
    and {e defined} if it contains a [Write]. Output ports are treated as
    live at [Halt] so their final values are preserved. The results drive
    dead-write elimination and the block-boundary terms of register sharing. *)

type t

val analyze : ?live_at_exit:string list -> Cfg.t -> t
(** [live_at_exit] lists variables (typically output ports) considered
    live after a [Halt] block. *)

val live_in : t -> Cfg.bid -> string list
(** Variables live on entry to the block, sorted. *)

val live_out : t -> Cfg.bid -> string list
(** Variables live on exit from the block, sorted. *)

val all_variables : t -> string list
(** Every variable read or written anywhere in the CFG, sorted. *)
