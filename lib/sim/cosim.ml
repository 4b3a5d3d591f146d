open Hls_util
open Hls_lang

type design = {
  d_prog : Typed.tprogram;
  d_cfg : Hls_cdfg.Cfg.t;
  d_datapath : Hls_rtl.Datapath.t;
  d_controller : Hls_ctrl.Ctrl_synth.t;
}

let input_ports d =
  List.filter_map
    (fun (p : Ast.port) ->
      if p.Ast.pdir = Ast.Input then Some (p.Ast.pname, p.Ast.pty) else None)
    d.d_prog.Typed.tports

(* The behavioral level wraps each input pattern to its port's format
   while the CDFG and RTL levels take patterns as given, so an
   out-of-range pattern would make them disagree on the stimulus itself.
   Wrapping once here, before any level runs, gives all three the same
   one. *)
let normalize_inputs d inputs =
  let ports = input_ports d in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (name, raw) :: rest -> (
        match List.assoc_opt name ports with
        | Some ty -> go ((name, Fixedpt.wrap (Hls_cdfg.Op.fmt_of ty) raw) :: acc) rest
        | None -> Error (Printf.sprintf "no input port %s" name))
  in
  go [] inputs

(* Compare one vector's three final states on every output port — the
   common core of [check] and the batched [check_random]. *)
let compare_levels d ~beh ~cfg (rtl : Rtl_sim.result) =
  let lookup who l name =
    match List.assoc_opt name l with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: output %s missing" who name)
  in
  let rec compare_ports = function
    | [] -> Ok rtl.Rtl_sim.cycles
    | (name, _) :: rest -> (
        match (lookup "behavioral" beh name, lookup "cdfg" cfg name, lookup "rtl" rtl.Rtl_sim.finals name) with
        | Ok a, Ok b, Ok c ->
            if a = b && b = c then compare_ports rest
            else
              Error
                (Printf.sprintf "output %s disagrees: behavioral=%d cdfg=%d rtl=%d" name a
                   b c)
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
  in
  compare_ports (Beh_sim.output_ports d.d_prog)

(* the controller the RTL level steps: the design's own at gate level *)
let controller ~gate_level_control d = if gate_level_control then Some d.d_controller else None

(* A level's simulation error as a verdict: "<level>: <message>". *)
let level name f =
  match f () with
  | v -> Ok v
  | exception (Rtl_sim.Sim_error m | Beh_sim.Sim_error m | Cfg_sim.Sim_error m) ->
      Error (name ^ ": " ^ m)

let ( let* ) = Result.bind

let check ?(gate_level_control = false) ?image d ~inputs =
  let* inputs = normalize_inputs d inputs in
  let* rtl =
    level "rtl" (fun () ->
        match image with
        | Some img -> Rtl_sim.run_image img ~inputs
        | None -> Rtl_sim.run ?controller:(controller ~gate_level_control d) d.d_datapath ~inputs)
  in
  let* beh = level "behavioral" (fun () -> Beh_sim.run d.d_prog ~inputs) in
  let* cfg = level "cdfg" (fun () -> Cfg_sim.run d.d_cfg ~inputs) in
  compare_levels d ~beh ~cfg rtl

let simulate_random ~runs ~seed ~gate_level_control d =
  let rng = Random.State.make [| seed |] in
  let input_ports = input_ports d in
  let random_value ty =
    let fmt = Hls_cdfg.Op.fmt_of ty in
    let bits = Fixedpt.bits fmt in
    (* positive patterns; divisions in the specs stay well-defined and
       fixed-point quotients stay in range. Only a 1-bit port's draw
       needs the wrap that [check] applies to its inputs. *)
    let magnitude = max 1 (min (bits - 1) 16) in
    Fixedpt.wrap fmt (1 + Random.State.int rng ((1 lsl magnitude) - 1))
  in
  (* draw every vector up front, in run order, so the stimulus stream is
     the same one the sequential loop produced *)
  let rec gen i acc =
    if i >= runs then List.rev acc
    else
      gen (i + 1)
        (List.map (fun (name, ty) -> (name, random_value ty)) input_ports :: acc)
  in
  let vectors = gen 0 [] in
  (* one compiled image per level serves the whole batch *)
  let* beh = level "behavioral" (fun () -> Beh_sim.compile d.d_prog) in
  let* cfg = level "cdfg" (fun () -> Cfg_sim.compile d.d_cfg) in
  let* image =
    level "rtl" (fun () ->
        Rtl_sim.compile ?controller:(controller ~gate_level_control d) d.d_datapath)
  in
  (* a batch that fails is replayed run by run, so the failure is
     reported at its own vector, after any earlier run's mismatch *)
  let rtl_run =
    match Rtl_sim.run_batch image ~vectors with
    | results ->
        let results = Array.of_list results in
        fun i _ -> Ok results.(i)
    | exception Rtl_sim.Sim_error _ ->
        fun _ inputs -> level "rtl" (fun () -> Rtl_sim.run_image image ~inputs)
  in
  let rec go i = function
    | [] -> Ok ()
    | inputs :: vs -> (
        match
          let* rtl = rtl_run i inputs in
          let* beh = level "behavioral" (fun () -> Beh_sim.run_image beh ~inputs) in
          let* cfg = level "cdfg" (fun () -> Cfg_sim.run_image cfg ~inputs) in
          compare_levels d ~beh ~cfg rtl
        with
        | Ok _ -> go (i + 1) vs
        | Error e ->
            Error
              (Printf.sprintf "run %d (inputs %s): %s" i
                 (String.concat ", "
                    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) inputs))
                 e))
  in
  go 0 vectors

(* The verdicts of this domain's most recent random checks, most
   recently asked first. A sweep's tied frontier points share one
   physical design, so checking them one after another asks the same
   question again. The key is the physical identity of the design's
   parts plus the stimulus: four pointer comparisons, where a content
   key would marshal and hash the whole design. Each entry is a pair of
   nested ephemerons on the parts, so it answers only while the design
   is alive and never keeps it alive. Kept per domain, so checks on
   worker domains share no state. *)
type verdict = (int * int * bool) * (unit, string) result
(** runs, seed, gate-level control; the verdict *)

type recent =
  ( Typed.tprogram,
    Hls_cdfg.Cfg.t,
    (Hls_rtl.Datapath.t, Hls_ctrl.Ctrl_synth.t, verdict) Ephemeron.K2.t )
  Ephemeron.K2.t

let recent_capacity = 4
let recent : recent list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let query (r : recent) d =
  Option.bind (Ephemeron.K2.query r d.d_prog d.d_cfg) (fun inner ->
      Ephemeron.K2.query inner d.d_datapath d.d_controller)

let check_random ?(runs = 20) ?(seed = 42) ?(gate_level_control = false) d =
  let stimulus = (runs, seed, gate_level_control) in
  let rs = Domain.DLS.get recent in
  let kept r = match query r d with Some (s, v) when s = stimulus -> Some (r, v) | _ -> None in
  let r, verdict =
    match List.find_map kept rs with
    | Some hit ->
        Hls_obs.Trace.incr "sim/cosim_reused";
        hit
    | None ->
        let v = simulate_random ~runs ~seed ~gate_level_control d in
        ( Ephemeron.K2.make d.d_prog d.d_cfg
            (Ephemeron.K2.make d.d_datapath d.d_controller (stimulus, v)),
          v )
  in
  let others = List.filter (fun x -> x != r) rs in
  Domain.DLS.set recent (r :: List.filteri (fun i _ -> i < recent_capacity - 1) others);
  verdict
