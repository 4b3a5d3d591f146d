(** Clique partitioning of a compatibility graph (Tseng & Siewiorek,
    Fig 7).

    Elements that can share hardware (operations on functional units,
    values in registers, transfers on buses) are nodes; compatibility is
    an edge. Covering the graph with a minimum number of cliques
    minimizes the hardware; since minimum clique cover is NP-hard, the
    classic greedy heuristic is used: repeatedly merge the pair of
    (super-)nodes with the most common compatible neighbors, until no
    compatible pair remains. *)

val partition : n:int -> compatible:(int -> int -> bool) -> int list list
(** Groups of mutually compatible elements covering [0 .. n-1]; each
    group's members are ascending, groups ordered by smallest member.
    Every pair within a group satisfies [compatible] (the predicate must
    be symmetric and irreflexive-agnostic; self-pairs are never asked).

    Group compatibility is tracked on a [Bytes]-backed bitset adjacency
    matrix with incrementally maintained common-neighbor scores, so each
    merge round costs O(groups²) bit probes instead of re-walking member
    lists. [compatible] is consulted exactly once per unordered pair. *)

val max_clique_lower_bound : n:int -> compatible:(int -> int -> bool) -> int
(** Size of the largest {e incompatibility} clique found greedily — a
    quick lower bound on the number of groups any partition needs
    (used by tests as a sanity check, not exact). *)
