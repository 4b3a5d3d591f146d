open Ast

(* Precedence levels matching the parser, used to parenthesize minimally. *)
let prec_of = function
  | Or -> 1
  | And | Xor -> 2
  | Eq | Ne | Lt | Le | Gt | Ge -> 3
  | Shl | Shr -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6

let unary_prec = 7

(* Comparisons are non-associative in the grammar: a chained comparison on
   the left must be parenthesized. Everything else is left-associative. *)
let rec expr_prec buf e ctx_prec =
  match e.e with
  | Eint n ->
      if n < 0 then Buffer.add_string buf (Printf.sprintf "(%d)" n)
      else Buffer.add_string buf (string_of_int n)
  | Ereal x ->
      let s = Printf.sprintf "%.12g" x in
      let s = if String.contains s '.' || String.contains s 'e' then s else s ^ ".0" in
      Buffer.add_string buf s
  | Ebool true -> Buffer.add_string buf "true"
  | Ebool false -> Buffer.add_string buf "false"
  | Evar name -> Buffer.add_string buf name
  | Eun (op, operand) ->
      let need_paren = ctx_prec > unary_prec in
      if need_paren then Buffer.add_char buf '(';
      Buffer.add_string buf (unop_to_string op);
      (match op with Not -> Buffer.add_char buf ' ' | Neg -> ());
      expr_prec buf operand unary_prec;
      if need_paren then Buffer.add_char buf ')'
  | Ebin (op, a, b) ->
      let p = prec_of op in
      let need_paren = ctx_prec > p || (is_comparison op && ctx_prec = p) in
      if need_paren then Buffer.add_char buf '(';
      expr_prec buf a p;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_to_string op);
      Buffer.add_char buf ' ';
      expr_prec buf b (p + 1);
      if need_paren then Buffer.add_char buf ')'

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_prec buf e 0;
  Buffer.contents buf

let rec stmt_lines ~indent (st : stmt) : string list =
  let pad = String.make indent ' ' in
  match st.s with
  | Sassign (name, rhs) -> [ Printf.sprintf "%s%s := %s;" pad name (expr_to_string rhs) ]
  | Sif (cond, then_, []) ->
      (Printf.sprintf "%sif %s then" pad (expr_to_string cond))
      :: stmts_lines ~indent:(indent + 2) then_
      @ [ pad ^ "end;" ]
  | Sif (cond, then_, else_) ->
      (Printf.sprintf "%sif %s then" pad (expr_to_string cond))
      :: stmts_lines ~indent:(indent + 2) then_
      @ [ pad ^ "else" ]
      @ stmts_lines ~indent:(indent + 2) else_
      @ [ pad ^ "end;" ]
  | Swhile (cond, body) ->
      (Printf.sprintf "%swhile %s do" pad (expr_to_string cond))
      :: stmts_lines ~indent:(indent + 2) body
      @ [ pad ^ "end;" ]
  | Srepeat (body, cond) ->
      (pad ^ "repeat")
      :: stmts_lines ~indent:(indent + 2) body
      @ [ Printf.sprintf "%suntil %s;" pad (expr_to_string cond) ]
  | Sfor (name, from_, to_, body) ->
      (Printf.sprintf "%sfor %s := %s to %s do" pad name (expr_to_string from_)
         (expr_to_string to_))
      :: stmts_lines ~indent:(indent + 2) body
      @ [ pad ^ "end;" ]
  | Scall (name, args) ->
      [
        Printf.sprintf "%scall %s(%s);" pad name
          (String.concat ", " (List.map expr_to_string args));
      ]

and stmts_lines ~indent stmts = List.concat_map (stmt_lines ~indent) stmts

let program_to_string (p : program) =
  let buf = Buffer.create 512 in
  let port_str (port : port) =
    Printf.sprintf "%s %s: %s"
      (match port.pdir with Input -> "input" | Output -> "output")
      port.pname (ty_to_string port.pty)
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s(%s);\n" p.mname
       (String.concat "; " (List.map port_str p.ports)));
  List.iter
    (fun (pr : proc_def) ->
      Buffer.add_string buf
        (Printf.sprintf "proc %s(%s);\n" pr.prname
           (String.concat "; " (List.map port_str pr.prparams)));
      List.iter
        (fun (d : decl) ->
          Buffer.add_string buf
            (Printf.sprintf "var %s: %s;\n" d.vname (ty_to_string d.vty)))
        pr.prvars;
      Buffer.add_string buf "begin\n";
      List.iter
        (fun line -> Buffer.add_string buf (line ^ "\n"))
        (stmts_lines ~indent:2 pr.prbody);
      Buffer.add_string buf "end;\n")
    p.procs;
  List.iter
    (fun (d : decl) ->
      Buffer.add_string buf (Printf.sprintf "var %s: %s;\n" d.vname (ty_to_string d.vty)))
    p.vars;
  Buffer.add_string buf "begin\n";
  List.iter
    (fun line -> Buffer.add_string buf (line ^ "\n"))
    (stmts_lines ~indent:2 p.body);
  Buffer.add_string buf "end\n";
  Buffer.contents buf
