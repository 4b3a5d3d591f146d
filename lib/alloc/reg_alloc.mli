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
  ?lifetimes:Lifetime.t ->
  ports:string list ->
  outputs:string list ->
  Hls_sched.Cfg_sched.t ->
  t
(** [ports] lists all port names (never merged); [outputs] are the output
    ports, live at program exit. Sharing defaults to true. [lifetimes] is
    the schedule's table, built here when absent. *)

val temp_track : t -> Cfg.bid -> Dfg.nid -> int option
(** Track (physical temp register index) of a value, if it needed one. *)

val n_temp_registers : t -> int

val register_of_var : t -> string -> string
(** Physical register name holding a variable (a shared register is named
    after the first variable of its group); a name that is no variable
    of the program is its own register. *)

(** {2 Registers as ints}

    Each register name is interned once per allocation: register [r],
    from 0 to [n_names t - 1], is named [name t r]. Variables are
    numbered by their {!Cfg_facts} ids (the schedule's
    {!Lifetime.facts}). *)

val n_names : t -> int
val name : t -> int -> string

val var_register : t -> int -> int
(** The register holding the variable of the given id. *)

val temp_register_id : t -> Cfg.bid -> Dfg.nid -> int
(** The temporary register holding a value, [-1] if it needs none: track
    [k] is the register named [tmpk]. *)

val find_register : t -> string -> int
(** The register of that name, [-1] if there is none (a linear scan). *)

val n_variable_registers : t -> int

val n_registers : t -> int
(** Total physical registers: temps + variable groups. *)

val variable_groups : t -> string list list
(** The sharing classes, each ascending, ordered by first member. *)

val pp : Format.formatter -> t -> unit
