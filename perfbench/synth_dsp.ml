(* synth_dsp: cold single-point synthesis of straight-line DSP kernels.

   Each request is one Flow.synthesize_result of a generated FIR-N
   (N 32-125) or biquad-K cascade (K 6-24, written with a proc so
   inlining runs) under one of four option points: allocator
   {min-mux greedy, clique} x scheduler {list/path, force-directed}.
   A cycle issues every program under every option point, in an order
   shuffled by the seed. Allocation (interconnect, left-edge registers,
   clique partitioning) and Quine-McCluskey over many FSM states do most
   of the work; the exact schedulers, the DSE memo and serve do none
   (these blocks are past the exact schedulers' size caps and there is
   no engine).

   Traced, the request calls the layers one by one, and the design they
   produce must match what Flow.synthesize_result returns. *)

open Hls_core

let option_points =
  let o = Flow.default_options in
  [
    ("list/min-mux", { o with Flow.scheduler = Flow.List_path; allocator = `Greedy_min_mux });
    ("list/clique", { o with Flow.scheduler = Flow.List_path; allocator = `Clique });
    ("fds/min-mux", { o with Flow.scheduler = Flow.Force_directed 0; allocator = `Greedy_min_mux });
    ("fds/clique", { o with Flow.scheduler = Flow.Force_directed 0; allocator = `Clique });
  ]

(* Seven FIR sizes 15 taps apart from 32 and six biquad sizes from 6 to
   23 sections; the seed adds up to 3 taps or 1 section. Wider jitter
   moved which requests sit at the median from seed to seed and made
   the seed, not the code, set the percentiles. *)
let programs ~seed =
  let rng = Gen.rng_of seed 1 in
  let firs = List.init 7 (fun i -> Gen.fir rng ~taps:(Gen.jitter rng ~base:(32 + (15 * i)) ~step:4)) in
  let biquads =
    List.map
      (fun base -> Gen.biquad rng ~sections:(Gen.jitter rng ~base ~step:2))
      [ 6; 9; 13; 16; 20; 23 ]
  in
  firs @ biquads

type item = { prog : Gen.program; label : string; options : Flow.options; vec_seed : int }
type env = { items : item array }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let setup ~seed ~scratch:_ =
  let progs = programs ~seed in
  List.iter (fun (p : Gen.program) -> ignore (Flow.frontend p.source)) progs;
  let items =
    Array.of_list
      (List.concat_map
         (fun (p : Gen.program) ->
           List.map
             (fun (label, options) ->
               { prog = p; label; options; vec_seed = Hashtbl.hash (seed, p.name, label) })
             option_points)
         progs)
  in
  shuffle (Gen.rng_of seed 2) items;
  (* warm-up: the smallest FIR and the smallest biquad under every
     option point *)
  List.iter
    (fun (p : Gen.program) ->
      List.iter
        (fun (_, options) -> ignore (Flow.synthesize_result ~options p.source))
        option_points)
    [ List.hd progs; List.nth progs 7 ];
  { items }

let count_ops (cfg : Hls_cdfg.Cfg.t) =
  List.fold_left
    (fun acc bid -> acc + List.length (Hls_cdfg.Dfg.compute_ops (Hls_cdfg.Cfg.dfg cfg bid)))
    0 (Hls_cdfg.Cfg.block_ids cfg)

(* The flow of Flow.synthesize_result, one public layer call at a time,
   each under its own span. *)
let layered (options : Flow.options) source =
  let c = Spans.with_ "lang.frontend" (fun () -> Flow.frontend source) in
  let o =
    Spans.with_ "transform.midend" (fun () ->
        Flow.midend ~passes:options.passes ~if_conversion:options.if_conversion c)
  in
  Spans.add "cdfg.ops" (count_ops o.o_cfg);
  Spans.add "cdfg.blocks" (Hls_cdfg.Cfg.n_blocks o.o_cfg);
  let sched =
    Spans.with_ "sched.schedule"
      ~attrs:[ ("scheduler", Flow.scheduler_to_string options.scheduler) ]
      (fun () -> Flow.schedule options o)
  in
  let fu =
    Spans.with_ "alloc.fu" (fun () ->
        match options.allocator with
        | `Clique -> Hls_alloc.Fu_alloc.by_clique sched
        | `Greedy_min_mux -> Hls_alloc.Fu_alloc.greedy ~selection:`Min_mux sched
        | `Greedy_first_fit -> Hls_alloc.Fu_alloc.greedy ~selection:`First_fit sched)
  in
  let ports = Flow.ports_of o.o_prog in
  let regs =
    Spans.with_ "alloc.reg" (fun () ->
        Hls_alloc.Reg_alloc.run ~share_variables:options.share_variables
          ~ports:(List.map (fun (n, _, _) -> n) ports)
          ~outputs:o.o_outputs sched)
  in
  let transfers =
    Spans.with_ "alloc.interconnect" (fun () -> Hls_alloc.Interconnect.transfers sched ~fu ~regs)
  in
  let datapath =
    Spans.with_ "rtl.datapath" (fun () ->
        let dp = Hls_rtl.Datapath.build sched ~fu ~regs ~ports in
        Result.map (fun () -> dp) (Hls_rtl.Check.run dp))
  in
  match datapath with
  | Error ds -> Error ds
  | Ok datapath ->
      let controller =
        Spans.with_ "ctrl.synth" (fun () ->
            Hls_ctrl.Ctrl_synth.synthesize ~style:options.encoding datapath.Hls_rtl.Datapath.fsm)
      in
      let estimate =
        Spans.with_ "rtl.estimate" (fun () ->
            Hls_rtl.Estimate.estimate ~style:options.encoding ~ctrl:controller datapath sched)
      in
      Ok
        {
          Flow.options;
          prog = o.o_prog;
          cfg = o.o_cfg;
          sched;
          fu;
          regs;
          transfers;
          datapath;
          controller;
          estimate;
        }

let shape (d : Flow.design) =
  ( d.estimate,
    Hls_sched.Cfg_sched.digest d.sched,
    Hls_alloc.Fu_alloc.n_units d.fu,
    Hls_alloc.Reg_alloc.n_registers d.regs,
    List.length d.transfers )

(* Layer facts of one finished design, for the traced run. *)
let note_design (d : Flow.design) =
  Spans.add "alloc.registers" (Hls_alloc.Reg_alloc.n_registers d.regs);
  Spans.add "alloc.transfers" (List.length d.transfers);
  Spans.add "ctrl.fsm_states" (Hls_ctrl.Fsm.n_states d.datapath.fsm);
  Spans.record_max "ctrl.inputs_max" (Hls_ctrl.Ctrl_synth.n_inputs d.controller)

let cosim ~vec_seed (d : Flow.design) =
  Spans.counted (fun () ->
      Spans.with_ "sim.cosim" (fun () ->
          Hls_sim.Cosim.check_random ~runs:8 ~seed:vec_seed (Flow.cosim_design d)))

let diagnostics ds =
  String.concat "; " (List.map Hls_analysis.Diagnostic.to_string ds)

let cycle env meter =
  Array.iter
    (fun it ->
      let traced = !Spans.enabled in
      Meter.request meter
        ~attrs:[ ("program", it.prog.name); ("options", it.label) ]
        (fun () ->
          if traced then layered it.options it.prog.source
          else Flow.synthesize_result ~options:it.options it.prog.source)
        (function
          | Error ds -> Error (Printf.sprintf "%s %s: %s" it.prog.name it.label (diagnostics ds))
          | Ok d ->
              let ( let* ) = Result.bind in
              let* () =
                if not traced then Ok ()
                else begin
                  note_design d;
                  match Flow.synthesize_result ~options:it.options it.prog.source with
                  | Ok r when shape r = shape d -> Ok ()
                  | Ok _ ->
                      Error
                        (Printf.sprintf "%s %s: layer-by-layer design differs from Flow's"
                           it.prog.name it.label)
                  | Error ds -> Error (diagnostics ds)
                end
              in
              Meter.quality meter ~area:d.estimate.total_area
                ~latency_ns:d.estimate.latency_ns;
              Result.map_error
                (Printf.sprintf "%s %s: cosim %s" it.prog.name it.label)
                (cosim ~vec_seed:it.vec_seed d)))
    env.items
