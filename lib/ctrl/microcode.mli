(** Microcoded control ("if microcoded control is chosen, a control step
    corresponds to a microprogram step and the microprogram can be
    optimized using encoding techniques for the microcontrol word").

    A control store holds one word per state. Costing styles:
    - {e horizontal}: raw word width × states;
    - {e vertical (field-encoded)}: each field shrinks to
      ⌈log₂ distinct-values⌉ bits plus a decoder;
    - {e dictionary}: unique words go to a small dictionary ROM,
      addressed by a narrow pointer per state. *)

type field = { fname : string; fwidth : int }

type t

val fits : field -> int -> bool
(** Whether a value fits the field: non-negative and below
    [2{^fwidth}]. Every non-negative [int] fits a field of at least
    [Sys.int_size - 1] bits. *)

val make : fields:field list -> words:int list array -> t
(** [words.(state)] lists the field values of the state's control word,
    in field order. Raises [Invalid_argument] on arity or range
    mismatch. *)

val n_states : t -> int
val horizontal_bits : t -> int
(** Total ROM bits, horizontal layout. *)

val vertical_bits : t -> int
(** Total ROM bits after per-field value encoding. *)

val dictionary_bits : t -> int
(** Pointer ROM + dictionary ROM bits. *)

val unique_words : t -> int

val pp : Format.formatter -> t -> unit
