(** Hardware component library for module binding ("for the binding of
    functional units, known components such as adders can be taken from a
    hardware library. Libraries facilitate the synthesis process and the
    size/timing estimation").

    Area is in gate equivalents: a per-bit cost times the datapath width
    plus a fixed overhead. Delays are nanoseconds at any width (a
    simplification documented in DESIGN.md). *)

open Hls_cdfg

(** Which operations a component can execute. Plain data rather than a
    predicate closure so a component — and any design containing one —
    can be marshalled into the persistent design cache. *)
type coverage = Add_sub | Full_alu | Mul_only | Div_mod | Shifts

type t = {
  cname : string;
  cls : Op.fu_class;  (** functional-unit class the component serves *)
  covers : coverage;  (** operation coverage *)
  area_base : int;
  area_per_bit : int;
  delay_ns : float;
}

val executes : t -> Op.t -> bool
(** Whether the component's {!coverage} includes the operation. *)

val library : t list
(** The built-in component catalogue: add/sub unit, full ALU,
    array multiplier, sequential divider, barrel shifter. *)

val find : string -> t
(** Lookup by name. Raises [Not_found]. *)

val area : t -> width:int -> int

val min_area : Op.fu_class -> width:int -> int
(** Area of the class's cheapest library component at the width; 0 for
    a class the library has no component of (free and non-executing
    operations). *)

val min_delay_ns : Op.fu_class -> float
(** Delay of the class's fastest library component; 0 for a class the
    library has no component of. *)

val bind : cls:Op.fu_class -> ops:Op.t list -> t
(** Cheapest library component of the class covering all the operations
    (module binding). Raises [Not_found] if nothing covers them. *)

val register_area : width:int -> int
val mux_area : inputs:int -> width:int -> int
(** Gate cost of storage and steering logic. *)

val register_delay_ns : float
val mux_delay_ns : float
val free_op_delay_ns : float
(** Wiring-level delays used by cycle-time estimation (register
    clock-to-q + setup; one 2-way mux level; one free operation such as
    a constant shift or zero-detect). *)
