(** Quine–McCluskey two-level minimization (the "optimization of the
    combinational logic" step of hardwired-control synthesis).

    Exact prime-implicant generation followed by essential-prime
    selection and a greedy cover of the remainder, computed on truth
    tables of 2^n bits for n inputs.

    {b Word layout.} A {!table} holds one bit per minterm, 32 to an int
    word: minterm [x] is bit [x land 31] of word [x lsr 5], so a table
    has [max 1 (2^(n-5))] words (128 at {!max_inputs}, 1 KB).

    {b Primes.} For a set D of dash inputs, the implicant bitset W_D has
    bit [x] set (D's bits of [x] clear) when every minterm of the cube
    with dashes D and the literals of [x] elsewhere is on or don't-care.
    W_∅ is the table of on ∪ dc, and W_{D+i}(x) = W_D(x) ∧ W_D(x + 2^i),
    one shift-and-mask per word for an input inside a word and one word
    pair for an input across words. The walk goes depth-first over dash
    sets, adding dashes in increasing input order, and prunes a subtree
    once W is empty. The primes of D are the bits of W_D whose neighbour
    across every non-dash input is clear. It keeps one W per depth, so
    its memory is (n + 1) tables, at most 13 KB.

    {b Cover.} Each prime's cover is a bitset of the on-minterms it
    holds, over the words holding any. Primes are indexed in ascending
    [(mask, value)] order; every sole cover of an on-minterm is chosen,
    then the greedy step repeatedly takes the lowest-index prime with the
    strictly largest count of on-minterms still uncovered. Gains only
    fall as the cover grows, so the greedy step keeps every prime's last
    gain in a priority queue and recounts only the top one. The result is
    in ascending [(mask, value)] order. [ctrl/qm_iterations] counts one
    plus the most dashes of any prime: the levels a level-by-level QM
    combines. *)

val max_inputs : int
(** Largest input count a table or [minimize] accepts (12). *)

type table
(** A set of minterms over a fixed input count. *)

val table : n_inputs:int -> table
(** The empty table. Raises [Invalid_argument] when [n_inputs] is
    outside [\[0, max_inputs\]], before allocating anything. *)

val add : table -> int -> unit
(** Add a minterm; raises [Invalid_argument] outside
    [\[0, 2^n_inputs)]. *)

val complement : table -> table
(** Every minterm of the input space the table does not hold. *)

val minimize_table : on:table -> dc:table -> Logic.sop
(** Minimal (or near-minimal) sum of products covering every [on]
    minterm, possibly using [dc] don't-cares, and covering no minterm
    outside their union. Raises [Invalid_argument] when the tables
    overlap or differ in input count. *)

val minimize :
  n_inputs:int -> on_set:int list -> ?dc_set:int list -> unit -> Logic.sop
(** {!minimize_table} on tables of the listed minterms. Raises
    [Invalid_argument] when [n_inputs] is outside [\[0, max_inputs\]]
    (before allocating anything), when a minterm is outside
    [\[0, 2^n_inputs)], or when the sets overlap. *)
