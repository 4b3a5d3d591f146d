(** Pretty-printer: AST back to concrete BSL syntax.

    [parse (program_to_string p)] is structurally equal to [p] (up to
    source positions), a property exercised by the round-trip tests. *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
