(** The storage facts of an optimized CFG that no schedule changes:
    variable liveness, the variables with dense ids, each block's reads,
    writes and branch condition, and each block's static execution
    frequency.

    Build it once per midend result ({!Hls_core.Flow.optimized} keeps
    one) and hand it to {!Lifetime.table}: every schedule of the CFG
    then reuses it instead of re-running {!Hls_cdfg.Liveness}. *)

open Hls_cdfg

type block = {
  reads : (string * Dfg.nid) list;  (** {!Dfg.reads} order *)
  writes : (string * Dfg.nid) list;  (** {!Dfg.writes} order *)
  write_ids : (int * Dfg.nid) list;  (** [writes] by variable id *)
  node_var : int array;
      (** indexed by node: the variable id a [Read] or [Write] node
          names, [-1] for every other node *)
  cond : Dfg.nid option;  (** the branch condition the terminator samples *)
  live_in : int list;  (** variable ids live on entry, ascending *)
  live_out : int list;  (** variable ids live on exit, ascending *)
}

type t = {
  cfg : Cfg.t;
  outputs : string list;  (** live at program exit *)
  vars : string array;
      (** every variable read or written, ascending
          ({!Hls_cdfg.Liveness.all_variables}); a variable's id is its
          index *)
  blocks : block array;  (** indexed by block id *)
  freq : int array;
      (** {!Hls_cdfg.Cfg.exec_frequencies}, indexed by block id: what a
          schedule of the CFG weights its block lengths by *)
}

val make : outputs:string list -> Cfg.t -> t
(** Analyze the CFG; [outputs] are live at program exit. *)

val variables : Cfg.t -> t
(** The facts without the liveness analysis: every live set is empty
    and [outputs] is [[]]. What a schedule's {!Lifetime.table} needs
    when its caller has no facts at hand. *)

val liveness_runs : unit -> int
(** Builds by this process so far, on any domain — each runs the
    liveness analysis once: a work count for tests that pin how often a
    pass runs it. *)

val index_in : string array -> string -> int option
(** The index of a name in an ascending array, by binary search. *)

val find_var : t -> string -> int option
(** The id of a variable, by binary search over {!vars}; [None] for a
    name no block reads or writes. *)

val var_id : t -> string -> int
(** {!find_var}; raises [Not_found] for a name no block reads or
    writes. *)
