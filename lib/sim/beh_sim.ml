open Hls_util
open Hls_lang
open Hls_lang.Typed

exception Sim_error of string

let fmt_of_ty = Hls_cdfg.Op.fmt_of
let to_raw ty x = Fixedpt.of_float (fmt_of_ty ty) x
let of_raw ty v = Fixedpt.to_float (fmt_of_ty ty) v

let output_ports (p : tprogram) =
  List.filter_map
    (fun (port : Ast.port) ->
      if port.Ast.pdir = Ast.Output then Some (port.Ast.pname, port.Ast.pty) else None)
    p.tports

type image = {
  slots : (string, int) Hashtbl.t;  (** variable name → slot *)
  names : string array;  (** slot → variable name, sorted: the [finals] order *)
  fmts : Fixedpt.format array;  (** slot → declared format *)
  env : int array;  (** current values, reset between runs *)
  fuel : int ref;  (** shared with the staged statements *)
  body : unit -> unit;
}

(* Every port and variable resolves to an array slot and every operator
   to an [Op.compile_eval] closure once; statements become closures over
   the slot array. Each statement and each loop iteration spends one unit
   of fuel; assignments wrap to the variable's format. A name the program
   does not declare raises [Not_found] when (and only when) it is
   evaluated, as [Typed.var_ty] does. *)
let compile (p : tprogram) =
  let names = Array.of_list (List.sort_uniq compare (List.map fst (Typed.all_vars p))) in
  let slots = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace slots v i) names;
  let fmts = Array.map (fun v -> fmt_of_ty (Typed.var_ty p v)) names in
  let env = Array.make (max (Array.length names) 1) 0 in
  let fuel = ref 0 in
  let spend () =
    decr fuel;
    if !fuel < 0 then raise (Sim_error "out of fuel (possible non-terminating loop)")
  in
  let read v : unit -> int =
    match Hashtbl.find_opt slots v with
    | Some i -> fun () -> env.(i)
    | None -> fun () -> raise Not_found
  in
  let const v () = v in
  let rec expr (e : texpr) : unit -> int =
    match e.te with
    | TEint n -> (
        match e.ty with
        | Ast.Tfix _ -> const (Fixedpt.of_int (fmt_of_ty e.ty) n)
        | Ast.Tint _ | Ast.Tbool -> const (Fixedpt.wrap (fmt_of_ty e.ty) n))
    | TEreal x -> const (Fixedpt.of_float (fmt_of_ty e.ty) x)
    | TEbool b -> const (if b then 1 else 0)
    | TEvar v -> read v
    | TEbin (op, a, b) ->
        let ev = Hls_cdfg.Op.compile_eval e.ty (Hls_cdfg.Op.of_binop op) in
        let ca = expr a and cb = expr b in
        let buf = Array.make 2 0 in
        fun () ->
          buf.(0) <- ca ();
          buf.(1) <- cb ();
          ev buf
    | TEun (u, a) ->
        let ev =
          Hls_cdfg.Op.compile_eval e.ty
            (match u with Ast.Neg -> Hls_cdfg.Op.Neg | Ast.Not -> Hls_cdfg.Op.Not)
        in
        let ca = expr a in
        let buf = Array.make 1 0 in
        fun () ->
          buf.(0) <- ca ();
          ev buf
  in
  let assign v : int -> unit =
    match Hashtbl.find_opt slots v with
    | Some i ->
        let fmt = fmts.(i) in
        fun x -> env.(i) <- Fixedpt.wrap fmt x
    | None -> fun _ -> raise Not_found
  in
  let rec stmt (st : tstmt) : unit -> unit =
    match st with
    | TSassign (v, rhs) ->
        let set = assign v and r = expr rhs in
        fun () ->
          spend ();
          set (r ())
    | TSif (c, then_, else_) ->
        let c = expr c and t = stmts then_ and e = stmts else_ in
        fun () ->
          spend ();
          if c () <> 0 then t () else e ()
    | TSwhile (c, body) ->
        let c = expr c and body = stmts body in
        fun () ->
          spend ();
          while c () <> 0 do
            spend ();
            body ()
          done
    | TSrepeat (body, c) ->
        let body = stmts body and c = expr c in
        let rec loop () =
          spend ();
          body ();
          if c () = 0 then loop ()
        in
        fun () ->
          spend ();
          loop ()
    | TSfor (v, from_, to_, body) ->
        let set = assign v and from_ = expr from_ and to_ = expr to_ in
        let body = stmts body in
        let current = read v in
        fun () ->
          spend ();
          set (from_ ());
          let limit = to_ () in
          while current () <= limit do
            spend ();
            body ();
            set (current () + 1)
          done
  and stmts sts =
    let code = Array.of_list (List.map stmt sts) in
    fun () ->
      for i = 0 to Array.length code - 1 do
        code.(i) ()
      done
  in
  { slots; names; fmts; env; fuel; body = stmts p.tbody }

let run_image ?(fuel = 1_000_000) img ~inputs =
  let env = img.env in
  Array.fill env 0 (Array.length env) 0;
  (* the first binding of a name wins, as with [List.assoc] *)
  List.iter
    (fun (v, raw) ->
      match Hashtbl.find_opt img.slots v with
      | Some i -> env.(i) <- Fixedpt.wrap img.fmts.(i) raw
      | None -> ())
    (List.rev inputs);
  img.fuel := fuel;
  (try img.body () with Division_by_zero -> raise (Sim_error "division by zero"));
  List.init (Array.length img.names) (fun i -> (img.names.(i), env.(i)))

let run ?fuel p ~inputs = run_image ?fuel (compile p) ~inputs
