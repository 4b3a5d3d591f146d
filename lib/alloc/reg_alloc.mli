(** Register (storage) allocation.

    Two storage populations, per the lifetime analysis:

    - {e temporaries}: values crossing step boundaries inside a block.
      Allocated with REAL's left-edge algorithm per block; because basic
      blocks never execute concurrently, track [k] of every block is the
      same physical register, so the temp register count is the maximum
      track count over blocks.
    - {e variables}: one register per variable, optionally shared:
      variables whose registers are never occupied at the same step
      boundary of a block ({!Lifetime.interference}: liveness at block
      entry and exit, the values each holds inside the block, and the
      step each write latches in) are merged by clique partitioning
      ("values may be assigned to the same register when their
      lifetimes do not overlap").

    Input and output ports always keep dedicated registers (their values
    are externally observable). *)

open Hls_cdfg

type t

val run :
  ?share_variables:bool ->
  ports:string list ->
  outputs:string list ->
  Hls_sched.Cfg_sched.t ->
  t
(** [ports] lists all port names (never merged); [outputs] are the output
    ports, live at program exit. Sharing defaults to true. *)

val temp_track : t -> Cfg.bid -> Dfg.nid -> int option
(** Track (physical temp register index) of a value, if it needed one. *)

val temp_register : t -> Cfg.bid -> Dfg.nid -> string option
(** Name of the temp register holding a value, if it needed one: track
    [k] is register [tmpk]. *)

val n_temp_registers : t -> int

val register_of_var : t -> string -> string
(** Physical register name holding a variable (a shared register is named
    after the first variable of its group). *)

val n_variable_registers : t -> int

val n_registers : t -> int
(** Total physical registers: temps + variable groups. *)

val variable_groups : t -> string list list
(** The sharing classes, each ascending, ordered by first member. *)

val pp : Format.formatter -> t -> unit
