(** Quine–McCluskey two-level minimization (the "optimization of the
    combinational logic" step of hardwired-control synthesis).

    Exact prime-implicant generation followed by essential-prime
    selection and a greedy cover of the remainder. Primes come from a
    table with one bit per cube — one base-3 digit per input: 0, 1 or
    don't-care — of 3^n bits for n inputs (66 KB at {!max_inputs}). One
    walk fills it, visiting each implicant once and carrying its
    [(mask, value)] down with it; primality then costs n table probes
    per implicant. *)

val max_inputs : int
(** Largest input count [minimize] accepts (12). *)

val minimize :
  n_inputs:int -> on_set:int list -> ?dc_set:int list -> unit -> Logic.sop
(** Minimal (or near-minimal) sum of products covering every [on_set]
    assignment, possibly using [dc_set] don't-cares, and covering no
    assignment outside their union. Raises [Invalid_argument] when
    [n_inputs] is outside [\[0, max_inputs\]] (before allocating
    anything), when a minterm is outside [\[0, 2^n_inputs)], or when
    the sets overlap. *)
