(** Pass manager: named optimization passes, declarative rewrite-rule
    passes, and first-class pipeline specs.

    A pipeline spec names the passes to run to a fixpoint, whether
    analysis-proved constant facts should be folded between optimizer
    rounds (interpreted by [Flow], which owns the range analysis), and
    an optional cost-guided extraction objective ({!Extract}). Specs
    have one canonical string form, round-tripping through
    {!pipeline_of_string}/{!pipeline_to_string}:

    {v
      SPEC     ::= BASE ("+" MODIFIER)*
      BASE     ::= "none" | "standard" | "aggressive" | "extract"
                 | PASS ("," PASS)*
      MODIFIER ::= "facts" | "extract:area" | "extract:latency"
    v}

    A named base imports its whole record; modifiers only add. The
    [standard] pipeline is the paper's compiler-like optimizations;
    [aggressive] adds loop recoding, unrolling, block merging and tree
    height reduction plus fact folding; [extract] further adds
    cross-block sharing and area-guided extraction. *)

open Hls_cdfg

type t = {
  name : string;
  descr : string;
  run : outputs:string list -> Cfg.t -> Cfg.t * bool;
}

val all : t list
(** Every registered pass, including one [rule:NAME] pass per
    declarative rewrite rule and one [rules:GROUP] pass per rule group
    (instantiated with the empty fact oracle). *)

val all_with : nonneg:(Cfg.t -> Cfg.bid -> Dfg.nid -> bool) -> t list
(** Like {!all} with rule passes guarded by the given fact oracle. *)

(** {1 Lookup} *)

type find_error = { unknown : string; suggestion : string option; known : string list }

val find : string -> (t, find_error) result
(** Look up by name; the error carries the known names and a
    nearest-name suggestion. *)

val find_error_to_string : find_error -> string

val find_exn : ?pool:t list -> string -> t
(** Raises [Invalid_argument] with {!find_error_to_string}. *)

(** {1 Pipelines} *)

val run_pipeline : outputs:string list -> t list -> Cfg.t -> Cfg.t
(** Apply the pass list repeatedly until a fixpoint (bounded). *)

val standard : t list
val aggressive : t list

type objective = Extract.objective

type pipeline = { passes : string list; fold_facts : bool; extract : objective option }

val named_pipelines : (string * pipeline) list
(** [none], [standard], [aggressive], [extract]. *)

val default_pipeline : pipeline
(** The [standard] named pipeline. *)

val pipeline_of_string : string -> (pipeline, string) result
val pipeline_to_string : pipeline -> string
(** Canonical form: named specs print as their name; a pass list
    matching a named spec prints as that name plus any additive
    modifiers. [pipeline_of_string (pipeline_to_string p) = Ok p]. *)

val run_spec :
  ?nonneg:(Cfg.t -> Cfg.bid -> Dfg.nid -> bool) ->
  ?cost:Extract.cost ->
  outputs:string list ->
  pipeline ->
  Cfg.t ->
  Cfg.t
(** Run a spec's passes to a fixpoint, then (if requested) cost-guided
    extraction followed by a cleanup round. Raises [Invalid_argument]
    on an unknown pass name. [fold_facts] is not interpreted here —
    the range analysis lives above this library; [Flow] owns it. *)
