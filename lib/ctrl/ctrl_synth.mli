(** Hardwired controller synthesis: state register + next-state logic.

    The FSM's inputs are the state register bits followed by one bit per
    distinct branch-condition signal; its outputs are the next-state
    bits. Logic is produced two ways:

    - {e direct}: one product term per transition (for one-hot encoding
      the state part is a single literal);
    - {e minimized}: exact truth tables + Quine–McCluskey, using
      unused state codes as don't-cares (only attempted up to
      {!Qm.max_inputs} inputs; past it the direct logic is used). The
      tables are {!Qm.table}s filled per used state code × condition
      assignment; the don't-cares are the complement of those
      minterms.

    The literal/PLA cost gap between the two is the benefit of
    combinational-logic optimization, one of the paper's control-styles
    comparisons. *)

open Hls_cdfg

type t

val synthesize : ?style:Encoding.style -> Fsm.t -> t
(** Default style is [Binary]. *)

val with_fsm : t -> Fsm.t -> t
(** The controller over another FSM equal to the one it was synthesized
    from. The DSE engine synthesizes one controller per distinct FSM and
    rebinds it to each design's own FSM, so a design's controller always
    refers to its datapath's FSM, exactly as a fresh synthesis does. *)

val with_next_logic : t -> Logic.sop array -> t
(** The controller with its {!next_logic} replaced — a fault injected
    into the shipped logic, for checking that gate-level simulation
    exercises it. *)

val fsm : t -> Fsm.t
(** The FSM the controller drives. *)

val style : t -> Encoding.style
val n_state_bits : t -> int
val n_inputs : t -> int
(** State bits + condition bits. *)

val cond_signals : t -> (Cfg.bid * Dfg.nid) list
(** Condition inputs in bit order (bit index = state bits + position). *)

val state_code : t -> int -> int
(** Encoded value of a state id. *)

val next_logic : t -> Logic.sop array
(** Per next-state bit, the minimized (or direct, if minimization was
    intractable) sum of products. *)

val direct_logic : t -> Logic.sop array

val next_state : t -> state:int -> conds:((Cfg.bid * Dfg.nid) * bool) list -> int
(** Simulate one FSM step on state ids (used by the RTL simulator and by
    the logic-equivalence tests). Unknown conditions default to false. *)

val literal_cost : t -> int
(** Total literals of the minimized next-state logic. *)

val direct_literal_cost : t -> int

val pla_cost : t -> rows:int -> int
(** PLA area proxy for a given row count: rows × (2·inputs + outputs). *)

val pla_rows : t -> int
(** Distinct product terms across the minimized outputs. *)

val pp : Format.formatter -> t -> unit
