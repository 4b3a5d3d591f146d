(* DSP example: an 8-tap FIR filter (the CATHEDRAL domain). Shows the
   effect of tree-height reduction — rebalancing the long accumulation
   chain shortens the critical path and lets more multipliers run in
   parallel — and filters an actual signal through the synthesized RTL.

     dune exec examples/fir_filter.exe *)

open Hls_core
open Hls_sched

let optimized_cfg src ~tree_height =
  let prog = Hls_lang.Typecheck.check (Hls_lang.Inline.expand (Hls_lang.Parser.parse src)) in
  let cfg = Hls_cdfg.Compile.compile prog in
  let outputs = Flow.output_names prog in
  let cfg = Hls_transform.Passes.run_spec Hls_transform.Passes.default_pipeline ~outputs cfg in
  if tree_height then ignore (Hls_transform.Rules.run_rules [ Hls_transform.Rules.add_rebalance ] cfg);
  cfg

let critical_length cfg =
  List.fold_left
    (fun acc bid ->
      max acc (Depgraph.critical_length (Depgraph.of_dfg (Hls_cdfg.Cfg.dfg cfg bid))))
    0
    (Hls_cdfg.Cfg.block_ids cfg)

let () =
  let src = Workloads.fir8 in
  let chain_cl = critical_length (optimized_cfg src ~tree_height:false) in
  let tree_cl = critical_length (optimized_cfg src ~tree_height:true) in
  Printf.printf "critical path: %d steps as written, %d after tree-height reduction\n\n"
    chain_cl tree_cl;

  (* synthesize and run a signal through the filter *)
  let design =
    Flow.synthesize
      ~options:{ Flow.default_options with Flow.limits = Limits.Total 3 }
      src
  in
  Printf.printf "design: %s\n" (Hls_rtl.Datapath.stats design.Flow.datapath);
  let ty = Hls_lang.Ast.Tfix (8, 24) in
  let taps = [| "x0"; "x1"; "x2"; "x3"; "x4"; "x5"; "x6"; "x7" |] in
  let signal = Array.init 24 (fun n -> sin (float_of_int n /. 3.0)) in
  let window = Array.make 8 0.0 in
  print_endline "n   input     filtered";
  Array.iteri
    (fun n x ->
      Array.blit window 0 window 1 7;
      window.(0) <- x;
      let inputs =
        Array.to_list
          (Array.mapi (fun i t -> (t, Hls_sim.Beh_sim.to_raw ty window.(i))) taps)
      in
      let r = Hls_sim.Rtl_sim.run design.Flow.datapath ~inputs in
      let y = Hls_sim.Beh_sim.of_raw ty (List.assoc "y" r.Hls_sim.Rtl_sim.finals) in
      Printf.printf "%-3d %+.5f  %+.5f\n" n x y)
    signal;
  match Flow.verify ~runs:10 design with
  | Ok () -> print_endline "\nco-simulation: 10 random vectors agree"
  | Error e -> Printf.printf "\nco-simulation FAILED: %s\n" e
