(* Full tour on the paper's sqrt example: the optimization pipelines and
   schedule lengths of Fig 2, loop unrolling as the paper suggests,
   Verilog and DOT emission of the final structure.

     dune exec examples/explore_sqrt.exe *)

open Hls_core
open Hls_sched

let compute_steps src ~pipeline ~limits ~extra_passes =
  let prog = Hls_lang.Typecheck.check (Hls_lang.Inline.expand (Hls_lang.Parser.parse src)) in
  let cfg = Hls_cdfg.Compile.compile prog in
  let outputs = Flow.output_names prog in
  let cfg =
    Hls_transform.Passes.run_spec
      (List.assoc pipeline Hls_transform.Passes.named_pipelines)
      ~outputs cfg
  in
  let cfg =
    List.fold_left
      (fun cfg name ->
        let pass = Hls_transform.Passes.find_exn name in
        let cfg, _ = pass.Hls_transform.Passes.run ~outputs cfg in
        cfg)
      cfg extra_passes
  in
  let cs = Cfg_sched.make cfg ~scheduler:(List_sched.schedule ~limits) in
  Cfg_sched.compute_steps cs

let () =
  let src = Workloads.sqrt_newton in
  Printf.printf "Fig 2 schedule lengths:\n";
  Printf.printf "  unoptimized, serial (paper: 23):        %d control steps\n"
    (compute_steps src ~pipeline:"none" ~limits:Limits.serial ~extra_passes:[]);
  Printf.printf "  optimized, two FUs  (paper: 10):        %d control steps\n"
    (compute_steps src ~pipeline:"standard" ~limits:Limits.two_fu
       ~extra_passes:[ "loop-recode"; "dce" ]);
  Printf.printf "  fully unrolled, two FUs:                %d control steps\n"
    (compute_steps src ~pipeline:"aggressive" ~limits:Limits.two_fu ~extra_passes:[]);
  Printf.printf "  fully unrolled, unlimited FUs:          %d control steps\n\n"
    (compute_steps src ~pipeline:"aggressive" ~limits:Limits.Unlimited ~extra_passes:[]);

  (* synthesize the optimized two-FU design and emit its structure *)
  let design = Flow.synthesize src in
  let verilog = Hls_rtl.Emit.verilog ~name:"sqrt" design.Flow.datapath in
  let dot = Hls_rtl.Emit.dot design.Flow.datapath in
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
  in
  write "sqrt.v" verilog;
  write "sqrt_datapath.dot" dot;
  write "sqrt_fsm.dot" (Hls_ctrl.Fsm.to_dot design.Flow.datapath.Hls_rtl.Datapath.fsm);

  print_newline ();
  Timing.reset ();
  print_string
    (Explore.table ~timings:true
       (Explore.sweep ~config:{ Dse.default_config with Dse.jobs = 4 }
          ~schedulers:[ Flow.List_path ] src));
  print_newline ();
  match Flow.verify ~runs:20 design with
  | Ok () -> print_endline "co-simulation: 20 random vectors agree across all levels"
  | Error e -> Printf.printf "co-simulation FAILED: %s\n" e
