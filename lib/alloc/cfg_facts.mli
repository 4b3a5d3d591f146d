(** The storage facts of an optimized CFG that no schedule changes:
    variable liveness, the variables with dense ids, and each block's
    reads, writes and branch condition.

    Build it once per midend result ({!Hls_core.Flow.optimized} keeps
    one) and hand it to {!Lifetime.table}: every schedule of the CFG
    then reuses it instead of re-running {!Hls_cdfg.Liveness}. *)

open Hls_cdfg

type block = {
  reads : (string * Dfg.nid) list;  (** {!Dfg.reads} order *)
  writes : (string * Dfg.nid) list;  (** {!Dfg.writes} order *)
  write_ids : (int * Dfg.nid) list;  (** [writes] by variable id *)
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
}

val make : outputs:string list -> Cfg.t -> t
(** Analyze the CFG; [outputs] are live at program exit. *)

val liveness_runs : unit -> int
(** Builds by this process so far, on any domain — each runs the
    liveness analysis once: a work count for tests that pin how often a
    pass runs it. *)

val var_id : t -> string -> int
(** Raises [Not_found] for a name no block reads or writes. *)
