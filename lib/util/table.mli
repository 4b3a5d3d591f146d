(** Plain-text table rendering for reports and benchmark output. *)

type t

val create : headers:string list -> t
(** New table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row. Rows shorter than the header are padded with empty
    cells; longer rows extend the table width. *)

val render : t -> string
(** Multi-line string with aligned columns and a header separator. *)

val print : t -> unit
(** [render] followed by [print_string]. *)
