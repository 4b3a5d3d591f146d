(* Pipelined datapath exploration (Sehwa): modulo-schedule the FIR
   filter kernel at decreasing initiation intervals and print the
   cost/performance curve — throughput bought with concurrently-busy
   functional units.

     dune exec examples/pipeline_fir.exe *)

open Hls_core
open Hls_sched
open Hls_util

let kernel_of src =
  let prog = Hls_lang.Typecheck.check (Hls_lang.Inline.expand (Hls_lang.Parser.parse src)) in
  let cfg = Hls_cdfg.Compile.compile prog in
  let outputs = Flow.output_names prog in
  let cfg = Hls_transform.Passes.run_spec Hls_transform.Passes.default_pipeline ~outputs cfg in
  ignore (Hls_transform.Rules.run_rules [ Hls_transform.Rules.add_rebalance ] cfg);
  (* largest block is the kernel *)
  List.fold_left
    (fun best bid ->
      let g = Hls_cdfg.Cfg.dfg cfg bid in
      match best with
      | Some g' when Hls_cdfg.Dfg.n_nodes g' >= Hls_cdfg.Dfg.n_nodes g -> best
      | _ -> Some g)
    None
    (Hls_cdfg.Cfg.block_ids cfg)
  |> Option.get

let () =
  let g = kernel_of Workloads.fir8 in
  let dep = Depgraph.of_dfg g in
  Printf.printf "fir8 kernel: %d operations, critical path %d steps\n\n"
    (Depgraph.n_ops dep)
    (Depgraph.critical_length dep);

  (* the full trade-off curve *)
  let t =
    Table.create
      ~headers:[ "II"; "latency"; "results/step"; "units (steady state)" ]
  in
  List.iter
    (fun (ii, latency, demand) ->
      Table.add_row t
        [
          string_of_int ii;
          string_of_int latency;
          Printf.sprintf "%.2f" (1.0 /. float_of_int ii);
          String.concat ", "
            (List.map
               (fun (c, n) ->
                 Printf.sprintf "%d %s" n (Hls_cdfg.Op.fu_class_to_string c))
               demand);
        ])
    (Pipeline.throughput_table ~limits:(Limits.Total 2) g);
  Table.print t;

  (* zoom in on one design point: smallest interval on two units *)
  let r = Pipeline.min_ii ~limits:(Limits.Total 2) g in
  Printf.printf
    "\nsmallest interval on 2 general units: II = %d (latency %d steps)\n"
    r.Pipeline.ii
    (Schedule.n_steps r.Pipeline.schedule);
  Printf.printf "steady-state slot loads (overlapped iterations):\n";
  List.iter
    (fun (slot, counts) ->
      Printf.printf "  slot %d: %s\n" slot
        (String.concat ", "
           (List.map
              (fun (c, n) -> Printf.sprintf "%d %s" n (Hls_cdfg.Op.fu_class_to_string c))
              counts)))
    r.Pipeline.modulo_usage;

  (* sanity: the modulo schedule still respects all dependences *)
  match Schedule.verify Limits.Unlimited r.Pipeline.schedule with
  | Ok () -> print_endline "\ndependences verified for the pipelined schedule"
  | Error e -> Printf.printf "\nINVALID: %s\n" e
