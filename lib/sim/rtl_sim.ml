open Hls_rtl

exception Sim_error of string

type result = { finals : (string * int) list; cycles : int }

(* ------------------------------------------------------------------ *)
(* Compiled simulation                                                 *)
(* ------------------------------------------------------------------ *)

(* One functional-unit activation, staged: argument wires and the
   operator dispatch are closures, the argument buffer is preallocated. *)
type cact = {
  ca_fu : int;
  ca_eval : int array -> int;
  ca_args : (unit -> int) array;
  ca_buf : int array;
}

type cload = { cl_reg : int; cl_wire : unit -> int }

(* Abstract-FSM transition, pre-resolved from the guard list. *)
type ctrans = CT_always of int | CT_cond of bool * int

type image = {
  im_dp : Datapath.t;
  im_reg_names : string array;  (** sorted; index = register id *)
  im_reg_vals : int array;  (** current register values, reset between runs *)
  im_reg_ids : (string, int) Hashtbl.t;
  im_acts : cact array array;  (** per state *)
  im_loads : cload array array;  (** per state *)
  im_pending : int array array;  (** per state, one slot per load *)
  im_conds : (unit -> int) option array;  (** per state *)
  im_next : ctrans array array;  (** per state, abstract-FSM transitions *)
  im_gate : (int -> bool option -> int) option;
      (** gate-level next-state, memoized per (state, cond value) *)
  im_entry : int;
  im_done : int;
  im_fu_vals : int array;
  im_fu_stamp : int array;  (** cycle number that last drove the unit *)
  im_cycle : int ref;  (** shared with compiled unit-read closures *)
}

let compile ?controller (dp : Datapath.t) =
  let fsm = dp.Datapath.fsm in
  let n_states = Hls_ctrl.Fsm.n_states fsm in
  (* registers: [Datapath.build] sorts definitions by name, which is the
     order [Hashtbl.fold ... |> List.sort compare] yields in the
     reference (names are unique), so finals/on_cycle snapshots agree *)
  let reg_names =
    Array.of_list
      (List.sort compare
         (List.map (fun (r : Datapath.reg_def) -> r.Datapath.rname) dp.Datapath.regs))
  in
  let n_regs = Array.length reg_names in
  let reg_ids = Hashtbl.create (2 * max n_regs 1) in
  Array.iteri (fun i name -> Hashtbl.replace reg_ids name i) reg_names;
  let reg_vals = Array.make (max n_regs 1) 0 in
  let n_fus =
    List.fold_left (fun acc (f : Datapath.fu_def) -> max acc (f.Datapath.fuid + 1)) 1
      dp.Datapath.fus
  in
  let n_fus =
    (* activations can reference units beyond the declared instances only
       in malformed designs; size for both so reads fail through stamps,
       not array bounds *)
    List.fold_left
      (fun acc (a : Datapath.activity) -> max acc (a.Datapath.a_fu + 1))
      n_fus dp.Datapath.activities
  in
  let fu_vals = Array.make n_fus 0 in
  let fu_stamp = Array.make n_fus min_int in
  let cycle = ref 0 in
  (* wire compilation: registers resolve to value-array slots, unit reads
     check the stamp of the driving cycle — the reference's "idle unit"
     detection without a per-cycle table *)
  let rec compile_wire (w : Wire.t) : unit -> int =
    match w with
    | Wire.W_reg r -> (
        match Hashtbl.find_opt reg_ids r with
        | Some id -> fun () -> reg_vals.(id)
        | None ->
            fun () -> raise (Sim_error (Printf.sprintf "read of missing register %s" r)))
    | Wire.W_const (v, _) -> fun () -> v
    | Wire.W_fu_out (u, _) ->
        if u < 0 || u >= n_fus then
          (* no activity ever drives this id: always an idle-unit read *)
          fun () ->
            raise (Sim_error (Printf.sprintf "combinational use of idle unit %d" u))
        else
          fun () ->
            if fu_stamp.(u) = !cycle then fu_vals.(u)
            else raise (Sim_error (Printf.sprintf "combinational use of idle unit %d" u))
    | Wire.W_shl (a, k, t) ->
        let fmt = Hls_cdfg.Op.fmt_of t and ca = compile_wire a in
        fun () -> Hls_util.Fixedpt.shift_left fmt (ca ()) k
    | Wire.W_shr (a, k, t) ->
        let fmt = Hls_cdfg.Op.fmt_of t and ca = compile_wire a in
        fun () -> Hls_util.Fixedpt.shift_right fmt (ca ()) k
    | Wire.W_zdetect a ->
        let ca = compile_wire a in
        fun () -> if ca () = 0 then 1 else 0
    | Wire.W_mux (c, a, b, _) ->
        let cc = compile_wire c and ca = compile_wire a and cb = compile_wire b in
        fun () -> if cc () <> 0 then ca () else cb ()
    | Wire.W_not (a, t) -> (
        let ca = compile_wire a in
        match t with
        | Hls_lang.Ast.Tbool -> fun () -> if ca () <> 0 then 0 else 1
        | _ ->
            let fmt = Hls_cdfg.Op.fmt_of t in
            fun () -> Hls_util.Fixedpt.wrap fmt (lnot (ca ())))
  in
  let ix = Datapath.index dp in
  let acts =
    Array.init n_states (fun s ->
        Array.map
          (fun (a : Datapath.activity) ->
            let args = Array.of_list (List.map compile_wire a.Datapath.a_args) in
            {
              ca_fu = a.Datapath.a_fu;
              ca_eval = Hls_cdfg.Op.compile_eval a.Datapath.a_ty a.Datapath.a_op;
              ca_args = args;
              ca_buf = Array.make (Array.length args) 0;
            })
          (Datapath.acts_at ix s))
  in
  let loads =
    Array.init n_states (fun s ->
        Array.map
          (fun (l : Datapath.load) ->
            let reg =
              match Hashtbl.find_opt reg_ids l.Datapath.l_reg with
              | Some id -> id
              | None ->
                  (* no such register: committing would be a silent no-op in
                     the reference (Hashtbl.replace inserts); unreachable in
                     well-formed designs, reject at compile time *)
                  raise
                    (Sim_error (Printf.sprintf "load of missing register %s" l.Datapath.l_reg))
            in
            { cl_reg = reg; cl_wire = compile_wire l.Datapath.l_wire })
          (Datapath.loads_at ix s))
  in
  let pending = Array.map (fun ls -> Array.make (max (Array.length ls) 1) 0) loads in
  let conds = Array.init n_states (fun s -> Option.map compile_wire (Datapath.cond_at ix s)) in
  let next =
    Array.init n_states (fun s ->
        Array.of_list
          (List.map
             (fun (tr : Hls_ctrl.Fsm.transition) ->
               match tr.Hls_ctrl.Fsm.t_guard with
               | Hls_ctrl.Fsm.G_always -> CT_always tr.Hls_ctrl.Fsm.t_to
               | Hls_ctrl.Fsm.G_cond (pol, _) -> CT_cond (pol, tr.Hls_ctrl.Fsm.t_to))
             (Hls_ctrl.Fsm.outgoing fsm s)))
  in
  let gate =
    match controller with
    | None -> None
    | Some c ->
        if Hls_ctrl.Fsm.n_states (Hls_ctrl.Ctrl_synth.fsm c) <> n_states then
          raise (Sim_error "controller and datapath disagree on the state count");
        (* the reference rebuilds this key per cycle: the first G_cond
           transition out of the state (in global transition order) paired
           with the state's block *)
        let cond_key =
          Array.make n_states (None : (Hls_cdfg.Cfg.bid * Hls_cdfg.Dfg.nid) option)
        in
        for s = 0 to n_states - 1 do
          cond_key.(s) <-
            (match
               List.find_opt
                 (fun (tr : Hls_ctrl.Fsm.transition) -> tr.Hls_ctrl.Fsm.t_from = s)
                 (List.filter
                    (fun (tr : Hls_ctrl.Fsm.transition) ->
                      match tr.Hls_ctrl.Fsm.t_guard with
                      | Hls_ctrl.Fsm.G_cond _ -> true
                      | Hls_ctrl.Fsm.G_always -> false)
                    (Hls_ctrl.Fsm.transitions fsm))
             with
            | Some { Hls_ctrl.Fsm.t_guard = Hls_ctrl.Fsm.G_cond (_, nid); _ } ->
                let st =
                  List.find
                    (fun (x : Hls_ctrl.Fsm.state) -> x.Hls_ctrl.Fsm.sid = s)
                    (Hls_ctrl.Fsm.states fsm)
                in
                Some (st.Hls_ctrl.Fsm.block, nid)
            | _ -> None)
        done;
        (* [Ctrl_synth.next_state] is pure, so one evaluation per
           (state, condition value) serves every cycle; computed on first
           use so states the run never reaches cost nothing *)
        let memo = Array.init n_states (fun _ -> [| None; None; None |]) in
        let slot_of = function None -> 0 | Some false -> 1 | Some true -> 2 in
        Some
          (fun s v ->
            let slot = slot_of v in
            match memo.(s).(slot) with
            | Some nx -> nx
            | None ->
                let conds =
                  match (v, cond_key.(s)) with
                  | Some b, Some key -> [ (key, b) ]
                  | _ -> []
                in
                let nx =
                  try Hls_ctrl.Ctrl_synth.next_state c ~state:s ~conds
                  with Invalid_argument m -> raise (Sim_error m)
                in
                memo.(s).(slot) <- Some nx;
                nx)
  in
  Hls_obs.Trace.incr "sim/images_compiled";
  {
    im_dp = dp;
    im_reg_names = reg_names;
    im_reg_vals = reg_vals;
    im_reg_ids = reg_ids;
    im_acts = acts;
    im_loads = loads;
    im_pending = pending;
    im_conds = conds;
    im_next = next;
    im_gate = gate;
    im_entry = Hls_ctrl.Fsm.entry fsm;
    im_done = Hls_ctrl.Fsm.done_state fsm;
    im_fu_vals = fu_vals;
    im_fu_stamp = fu_stamp;
    im_cycle = cycle;
  }

(* Replicates the reference cycle loop over the compiled image; the
   [cycle] counter referenced by compiled unit-read closures lives in the
   stamp array's generation discipline: a unit's value is only readable
   in the cycle that drove it. *)
let run_image ?(fuel = 1_000_000) ?on_cycle img ~inputs =
  let n_regs = Array.length img.im_reg_names in
  let vals = img.im_reg_vals in
  Array.fill vals 0 (Array.length vals) 0;
  Array.fill img.im_fu_stamp 0 (Array.length img.im_fu_stamp) min_int;
  List.iter
    (fun (name, raw) ->
      match Hashtbl.find_opt img.im_reg_ids name with
      | Some id -> vals.(id) <- raw
      | None -> raise (Sim_error (Printf.sprintf "no input register %s" name)))
    inputs;
  let state = ref img.im_entry in
  let cycles = img.im_cycle in
  cycles := 0;
  let snapshot () =
    let rec go i acc = if i < 0 then acc else go (i - 1) ((img.im_reg_names.(i), vals.(i)) :: acc) in
    go (n_regs - 1) []
  in
  while !state <> img.im_done do
    incr cycles;
    if !cycles > fuel then raise (Sim_error "out of fuel (controller may be stuck)");
    let s = !state in
    let cyc = !cycles in
    (* combinational phase: functional units *)
    let acts = img.im_acts.(s) in
    for i = 0 to Array.length acts - 1 do
      let a = acts.(i) in
      let buf = a.ca_buf in
      for k = 0 to Array.length a.ca_args - 1 do
        buf.(k) <- a.ca_args.(k) ()
      done;
      let v = try a.ca_eval buf with Division_by_zero -> raise (Sim_error "division by zero") in
      (* stamp before the edge: later activations of the same cycle read it *)
      img.im_fu_vals.(a.ca_fu) <- v;
      img.im_fu_stamp.(a.ca_fu) <- cyc
    done;
    (* register loads evaluate against pre-edge register values *)
    let loads = img.im_loads.(s) in
    let pend = img.im_pending.(s) in
    for i = 0 to Array.length loads - 1 do
      pend.(i) <- loads.(i).cl_wire ()
    done;
    (* branch decision *)
    let cond_value =
      match img.im_conds.(s) with Some w -> Some (w () <> 0) | None -> None
    in
    let next =
      match img.im_gate with
      | Some g -> g s cond_value
      | None -> (
          let trs = img.im_next.(s) in
          let rec pick i =
            if i >= Array.length trs then
              raise (Sim_error (Printf.sprintf "state %d has no enabled transition" s))
            else
              match trs.(i) with
              | CT_always t -> t
              | CT_cond (pol, t) -> (
                  match cond_value with
                  | Some v -> if v = pol then t else pick (i + 1)
                  | None -> raise (Sim_error "branch without condition wire"))
          in
          pick 0)
    in
    (* clock edge: commit loads and the state register together *)
    for i = 0 to Array.length loads - 1 do
      vals.(loads.(i).cl_reg) <- pend.(i)
    done;
    state := next;
    (match on_cycle with
    | Some f -> f ~cycle:!cycles ~state:!state ~regs:(snapshot ())
    | None -> ())
  done;
  Hls_obs.Trace.add "sim/cycles" !cycles;
  { finals = snapshot (); cycles = !cycles }

let run ?fuel ?controller ?on_cycle dp ~inputs =
  run_image ?fuel ?on_cycle (compile ?controller dp) ~inputs

(* Throughput mode: one compiled image, many stimulus vectors. run_image
   resets all mutable state up front, so replaying the image is exact. *)
let run_batch ?fuel img ~vectors =
  Hls_obs.Trace.add "sim/batch_vectors" (List.length vectors);
  List.map (fun inputs -> run_image ?fuel img ~inputs) vectors
