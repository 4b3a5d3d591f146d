(** Type checker: untyped AST → typed AST.

    Typing rules:
    - integer literals adopt the type of their context (any [int] or [fix]);
      without context they default to [int<32>];
    - real literals require a fixed-point context;
    - arithmetic requires both operands in the same family ([int] of any
      widths joins to the widest; [fix] requires an identical format);
    - shift amounts must be integers; the result has the shifted operand's
      type;
    - [and]/[or]/[xor] are logical on booleans and bitwise on integers;
    - comparisons yield [bool]; loop and branch conditions must be [bool];
    - assignments to input ports, uses of undeclared names, and duplicate
      declarations are errors. *)

val check : Ast.program -> Typed.tprogram
(** Raises {!Ast.Frontend_error} with a source position on any violation. *)
