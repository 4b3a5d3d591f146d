(** Data-flow graph of one basic block.

    Nodes are operations producing exactly one value; arcs are the
    producer→consumer relations implied by the specification (section 2 of
    the paper: "each value produced by one operation and consumed by
    another is represented uniquely by an arc").

    Invariant: node identifiers are allocated in topological order — every
    argument of a node has a smaller id. All analyses rely on this; graph
    rewrites therefore rebuild a fresh graph rather than mutate in place. *)

type nid = int

type node = { op : Op.t; args : nid list; ty : Hls_lang.Ast.ty }

type t

val create : unit -> t

val add : t -> Op.t -> nid list -> Hls_lang.Ast.ty -> nid
(** Append a node. Raises [Invalid_argument] if an argument id is not
    smaller than the new node's id, or if the argument count does not
    match the operator's arity. *)

val n_nodes : t -> int
val node : t -> nid -> node
val op : t -> nid -> Op.t
val args : t -> nid -> nid list
val ty : t -> nid -> Hls_lang.Ast.ty

val iter : (nid -> node -> unit) -> t -> unit
val fold : ('acc -> nid -> node -> 'acc) -> 'acc -> t -> 'acc
val node_ids : t -> nid list

val users : t -> nid list array
(** [users g] is the table mapping each node to the nodes consuming its
    value, in ascending order. Recomputed on each call. *)

val fu_class_of : t -> nid -> Op.fu_class
(** Context-sensitive functional-unit class: shifts by a constant amount
    are [C_free]; a [Write] whose argument is a constant or a [Read] is a
    register move occupying an ALU slot; a [Write] of a computed value is
    [C_none] (it rides along with its producer's step). *)

val occupies_step : t -> nid -> bool
(** Whether the node consumes a control-step slot on a functional unit
    (class is alu/mul/div/shift). *)

val compute_ops : t -> nid list
(** All nodes with [occupies_step], in topological (id) order. *)

val reads : t -> (string * nid) list
(** Variable reads, in id order. *)

val writes : t -> (string * nid) list
(** Variable writes, in id order. *)

val path_length : t -> int array
(** [path_length g] maps each node to the number of step-occupying
    operations on the longest dependence path starting at it (inclusive).
    This is the classic list-scheduling priority "length of path to the
    end of the block". *)

val depth : t -> int array
(** Dual of {!path_length}: number of step-occupying operations on the
    longest path from any source {e to} each node, inclusive. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?name:string -> t -> string
(** Graphviz rendering with operator labels. *)
