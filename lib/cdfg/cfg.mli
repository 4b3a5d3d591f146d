(** Control-flow graph: basic blocks of straight-line DFGs linked by
    (conditional) branches. This is the "internal representation containing
    both the data flow and the control flow implied by the specification"
    that high-level synthesis compiles into (section 2).

    Loop trip counts, when statically known (fixed iteration counts such as
    the 4 Newton iterations of the paper's sqrt example), are recorded per
    loop-header block and drive total-schedule-length reporting
    (e.g. "3 + 4*5 = 23 control steps"). *)

type bid = int

type term =
  | Goto of bid
  | Branch of Dfg.nid * bid * bid
      (** condition value in this block's DFG; (taken-if-true, if-false) *)
  | Halt  (** end of the behavior *)

type block = { label : string; dfg : Dfg.t; term : term }

type t

val create : unit -> t

val add_block : t -> ?label:string -> Dfg.t -> term -> bid
(** Append a block. Terminator targets may be forward references; call
    {!validate} once construction finishes. *)

val set_term : t -> bid -> term -> unit
(** Patch a block's terminator (used to wire forward branches). *)

val set_entry : t -> bid -> unit
val entry : t -> bid
val n_blocks : t -> int
val block : t -> bid -> block
val dfg : t -> bid -> Dfg.t
val term : t -> bid -> term
val iter : (bid -> block -> unit) -> t -> unit
val block_ids : t -> bid list

val replace_dfg : t -> bid -> Dfg.t -> term -> unit
(** Swap a block's body and terminator, used by optimization passes. *)

val set_trip_count : t -> bid -> int -> unit
(** Record that the loop headed at the block runs a known number of times. *)

val trip_count : t -> bid -> int option

val succs : t -> bid -> bid list
val validate : t -> unit
(** Check structural sanity: entry exists, every terminator target is a
    valid block, every branch condition is a bool-typed node of its own
    block. Raises [Invalid_argument] on violation. *)

val exec_frequencies : t -> int array
(** Static execution count of every block, indexed by block id,
    assuming every loop runs its recorded trip count (1 when the block
    is outside all counted loops). Used for total-latency reporting.
    Nested counted loops multiply. One pass over the loop forest. *)

val pp : Format.formatter -> t -> unit
val to_dot : ?name:string -> t -> string
