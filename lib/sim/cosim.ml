open Hls_util
open Hls_lang

type design = {
  d_prog : Typed.tprogram;
  d_cfg : Hls_cdfg.Cfg.t;
  d_datapath : Hls_rtl.Datapath.t;
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

let check ?(gate_level_control = false) ?image d ~inputs =
  match normalize_inputs d inputs with
  | Error e -> Error e
  | Ok inputs ->
      let rtl =
        match image with
        | Some img -> Rtl_sim.run_image img ~inputs
        | None -> Rtl_sim.run ~gate_level_control d.d_datapath ~inputs
      in
      let beh = Beh_sim.run d.d_prog ~inputs in
      let cfg = Cfg_sim.run d.d_cfg ~inputs in
      compare_levels d ~beh ~cfg rtl

let check_random ?(runs = 20) ?(seed = 42) ?gate_level_control d =
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
  let beh = Beh_sim.compile d.d_prog and cfg = Cfg_sim.compile d.d_cfg in
  let image =
    Rtl_sim.compile
      ~gate_level_control:(Option.value gate_level_control ~default:false)
      d.d_datapath
  in
  let rtl_results = Rtl_sim.run_batch image ~vectors in
  let rec go i vs rs =
    match (vs, rs) with
    | [], [] -> Ok ()
    | inputs :: vs, rtl :: rs -> (
        match
          compare_levels d
            ~beh:(Beh_sim.run_image beh ~inputs)
            ~cfg:(Cfg_sim.run_image cfg ~inputs)
            rtl
        with
        | Ok _ -> go (i + 1) vs rs
        | Error e ->
            Error
              (Printf.sprintf "run %d (inputs %s): %s" i
                 (String.concat ", "
                    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) inputs))
                 e))
    | _ -> assert false
  in
  go 0 vectors rtl_results
