(** Declarative DFG rewrite rules.

    Each rule packages a pattern + guard + builder over
    {!Rewrite.rewrite_dfg}: the [make] closure receives the source graph
    (for precomputation such as use counts or sharing tables) and a fact
    environment, and returns a matcher that inspects one node of the
    rewrite in flight and either declines ([None]) or produces a
    {!Rewrite.decision}. Rules compose first-match-wins in
    {!run_rules}, and a subset serves as candidate generators for
    cost-guided extraction ({!Extract}). *)

open Hls_cdfg

(** Facts a guard may consult about {e source-graph} node ids. *)
type env = { nonneg : Dfg.nid -> bool }

val no_facts : Cfg.t -> Cfg.bid -> Dfg.nid -> bool
(** The empty fact oracle: proves nothing, so guarded rules never fire. *)

(** One node of the rewrite in flight, as seen by a matcher: the new
    graph under construction, the remap table, and the current source
    node with its arguments already remapped. *)
type view = {
  out : Dfg.t;
  remap : int array;
  id : Dfg.nid;
  node : Dfg.node;
  mapped_args : Dfg.nid list;
}

type t = {
  name : string;
  descr : string;
  group : string;
  make : Dfg.t -> env -> (view -> Rewrite.decision option);
}

(** {1 The catalogue} *)

val mul_pow2_shift : t
val add_one_incr : t
val sub_one_decr : t
val cmp_zero_zdetect : t
val mul_const_chain : t
val div_pow2_shift : t
val add_rebalance : t
val cse_node : t

val all : t list
val groups : string list
val group : string -> t list
(** Rules belonging to one named group ("strength", "algebraic",
    "balance", "share"). *)

val extraction_rules : t list
(** Candidate generators for {!Extract.run}: rules whose right-hand
    sides trade operator classes (multiply/divide vs shift/ALU) and so
    deserve a cost model rather than unconditional application. *)

(** {1 Application} *)

val run_rules : ?nonneg:(Cfg.t -> Cfg.bid -> Dfg.nid -> bool) -> t list -> Cfg.t -> bool
(** Rewrite every block, applying the rules first-match-wins per node;
    unmatched nodes are copied. Returns whether anything changed. The
    fact oracle (default {!no_facts}) is forced lazily — consulted only
    when a guarded rule actually examines a node. *)

val cse_global : Cfg.t -> bool
(** Cross-block common-subexpression sharing: in a block whose unique
    predecessor computed and committed the same expression over
    variables it did not overwrite, the recomputation is replaced by a
    read of the committed variable. Sound because block writes commit at
    block exit and reads observe block-entry values. *)

(** {1 Pattern helpers shared with {!Extract}} *)

val fmt_of_ty : Hls_lang.Ast.ty -> Hls_util.Fixedpt.format
val frac_bits : Hls_lang.Ast.ty -> int
val log2_exact : int -> int option
val const_of : Dfg.t -> Dfg.nid -> int option
val with_const : Dfg.t -> Dfg.nid list -> (Dfg.nid * int) option
val shift_for_mul : Hls_lang.Ast.ty -> int -> (Op.t * int) option
val csd2 : Hls_lang.Ast.ty -> int -> (bool * int * int) option
(** [csd2 ty c] decomposes a positive non-power-of-two constant pattern
    as [2^a + 2^b] ([Some (true, a, b)]) or [2^a - 2^b]
    ([Some (false, a, b)]) with [a > b >= frac_bits ty], the condition
    under which the shift/add chain is bit-exact. *)
