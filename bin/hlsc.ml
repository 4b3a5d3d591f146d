(* hlsc — command-line driver for the high-level synthesis toolkit.

   Subcommands:
     synth    synthesize a specification and print the design report
     run      synthesize and simulate the RTL on given inputs
     dse      sweep resource limits / schedulers and print the trade-off
     lint     run every IR-level checker and report structured diagnostics
     analyze  dump the value-range/bitwidth inference per variable
     trace    synthesize under the event tracer and emit a Chrome trace
     passes   list optimization passes, rewrite rules and named pipelines
     examples list the built-in workloads

   Every subcommand shares one source term (positional FILE — a path or
   a built-in workload name — or --example) and one options term, folded
   from the option table in Flow.Knob: each option's flag, vocabulary
   and documentation are declared there once, and the serve wire codec
   reads the same table. *)

open Cmdliner
open Hls_core

(* ---- shared source term ---- *)

(* The one guarded file reader behind every path the CLI opens. Open
   first and report the failure, never probe-then-open: between a
   Sys.file_exists check and the open the path can vanish or change
   kind, and a directory path passes the probe only to blow up
   mid-read. Here a directory, a vanished file, or a permission wall
   all come back as an ordinary Error the caller renders — and in serve
   mode as a per-request error response, never process death. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (* read to the end, so a pipe (/dev/stdin) reads too *)
          try Ok (In_channel.input_all ic) with
          | Sys_error msg ->
              (* opening a directory succeeds on Linux; the read is what
                 fails, with an unhelpful errno — name the real cause *)
              Error (if Sys.is_directory path then path ^ ": is a directory" else msg))

let read_source path_opt example_opt =
  let of_name name =
    match List.assoc_opt name Workloads.all with
    | Some src -> Ok (name, src)
    | None ->
        Error
          (Printf.sprintf "unknown example %s (try: %s)" name
             (String.concat ", " (List.map fst Workloads.all)))
  in
  match (path_opt, example_opt) with
  | Some path, None -> (
      match read_file path with
      | Ok s -> Ok (path, s)
      | Error file_err -> (
          (* a bare workload name works positionally too *)
          match of_name path with
          | Ok r -> Ok r
          | Error name_err ->
              (* both failed: the file error for something that looks
                 like (or is) a path, the name suggestions otherwise *)
              Error (if Sys.file_exists path || String.contains path '/' then file_err else name_err)))
  | None, Some name -> of_name name
  | Some _, Some _ -> Error "give either FILE or --example, not both"
  | None, None -> Error "give a FILE, a built-in workload name, or --example NAME"

let source_file =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"BSL source file, or the name of a built-in workload.")

let example =
  Arg.(
    value
    & opt (some string) None
    & info [ "example"; "e" ] ~docv:"NAME" ~doc:"Use a built-in workload.")

let source_term = Term.(const (fun f e -> (f, e)) $ source_file $ example)

(* continue with the named source, or print the source error and exit 1 *)
let with_source (file, example) k =
  match read_source file example with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1
  | Ok (name, src) -> k ~name ~src

(* ---- shared options term ---- *)

(* One flag per exposed option of the table in Flow.Knob: --KEY (with
   '-' for '_') plus its short aliases, parsed by the knob's vocabulary
   and defaulting to Flow.default_options. *)
let words_conv (type a) (k : a Flow.Knob.t) (w : a Flow.Knob.vocab) =
  let parse s = Result.map_error (fun e -> `Msg e) (w.Flow.Knob.parse s) in
  let print ppf v = Format.pp_print_string ppf (w.Flow.Knob.print v) in
  Arg.conv ~docv:k.Flow.Knob.docv (parse, print)

let knob_term (type a) (k : a Flow.Knob.t) =
  let module K = Flow.Knob in
  let names = String.map (function '_' -> '-' | c -> c) k.K.key :: k.K.aliases in
  let about = Arg.info names ~docv:k.K.docv ~doc:k.K.doc in
  let default = k.K.get Flow.default_options in
  match k.K.kind with
  | K.Flag -> Term.(const (fun b o -> if b then k.K.set true o else o) $ Arg.(value & flag about))
  | K.Int -> Term.(const k.K.set $ Arg.(value & opt int default about))
  | K.Words w -> Term.(const k.K.set $ Arg.(value & opt (words_conv k w) default about))

let options_term =
  List.fold_left
    (fun acc (Flow.Knob.Any k) ->
      if k.Flow.Knob.exposed then Term.(const (fun o set -> set o) $ acc $ knob_term k)
      else acc)
    (Term.const Flow.default_options) Flow.Knob.all

(* ---- shared tracing/metrics flags ---- *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Evaluate sweep points on N worker domains (clamped to the \
           hardware's recommended domain count).")

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let trace_out_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Capture pipeline spans and write a Chrome trace_event JSON to FILE.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the counter totals after the run.")

let verify_flag =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"Run the full design lint after synthesis and fail on any error.")

let start_tracing trace_out =
  (* a fresh window either way; span capture only when asked for *)
  Hls_obs.Trace.reset ();
  if trace_out <> None then Hls_obs.Trace.enable ()

let write_chrome_trace path =
  let text = Hls_util.Json.to_string (Metrics.chrome_trace ()) in
  if path = "-" then print_string text
  else begin
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "wrote %s\n" path
  end

let finish_tracing trace_out metrics =
  Option.iter write_chrome_trace trace_out;
  if metrics then print_string (Metrics.render_counters ())

let report_lint_failure ds =
  List.iter (fun d -> Printf.eprintf "%s\n" (Hls_analysis.Diagnostic.to_string d)) ds;
  Printf.eprintf "error: design failed verification (%s)\n"
    (Hls_analysis.Diagnostic.summary ds);
  exit 1

let handle_errors f =
  try f () with
  | Hls_lang.Ast.Frontend_error (pos, msg) ->
      Printf.eprintf "error at %d:%d: %s\n" pos.Hls_lang.Ast.line pos.Hls_lang.Ast.col msg;
      exit 1
  | Flow.Lint_failed ds ->
      (* legacy raising paths (e.g. a sweep point failing verification) *)
      report_lint_failure ds
  | Invalid_argument msg | Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

(* ---- synth ---- *)

let verilog_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-verilog" ] ~docv:"FILE" ~doc:"Write structural Verilog to FILE.")

let dot_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-dot" ] ~docv:"FILE" ~doc:"Write a datapath DOT graph to FILE.")

let synth_cmd =
  let run source options verify verilog_out dot_out trace_out metrics =
    with_source source (fun ~name:_ ~src ->
        handle_errors (fun () ->
            start_tracing trace_out;
            match Flow.synthesize_result ~options ~verify src with
            | Error ds -> report_lint_failure ds
            | Ok d ->
                Report.print d;
                (match Flow.verify ~runs:5 d with
                | Ok () ->
                    print_endline
                      "co-simulation: behavioral = CDFG = RTL on 5 random vectors"
                | Error e -> Printf.printf "co-simulation FAILED: %s\n" e);
                (match verilog_out with
                | Some path ->
                    let name = d.Flow.prog.Hls_lang.Typed.tname in
                    let oc = open_out path in
                    output_string oc (Hls_rtl.Emit.verilog ~name d.Flow.datapath);
                    close_out oc;
                    Printf.printf "wrote %s\n" path
                | None -> ());
                (match dot_out with
                | Some path ->
                    let oc = open_out path in
                    output_string oc (Hls_rtl.Emit.dot d.Flow.datapath);
                    close_out oc;
                    Printf.printf "wrote %s\n" path
                | None -> ());
                finish_tracing trace_out metrics))
  in
  let info = Cmd.info "synth" ~doc:"Synthesize a behavioral specification to RTL." in
  Cmd.v info
    Term.(
      const run $ source_term $ options_term $ verify_flag $ verilog_out $ dot_out
      $ trace_out_flag $ metrics_flag)

(* ---- lint ---- *)

let matrix_flag =
  Arg.(
    value & flag
    & info [ "matrix" ]
        ~doc:"Lint each source under every scheduler × allocator combination.")

let lint_all_flag =
  Arg.(value & flag & info [ "all" ] ~doc:"Lint every built-in workload.")

let rules_flag =
  Arg.(value & flag & info [ "rules" ] ~doc:"Print the rule-code table and exit.")

let floor_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("info", Hls_analysis.Diagnostic.Info);
             ("warning", Hls_analysis.Diagnostic.Warning);
             ("error", Hls_analysis.Diagnostic.Error);
           ])
        Hls_analysis.Diagnostic.Info
    & info [ "severity" ] ~docv:"LEVEL"
        ~doc:"Report only diagnostics at or above LEVEL (info|warning|error).")

let lint_cmd =
  let run source all matrix json floor rules base =
    if rules then begin
      print_string (Lint.rules_table ());
      exit 0
    end;
    let sources =
      if all then Ok Workloads.all
      else
        match read_source (fst source) (snd source) with
        | Error e -> Error e
        | Ok (name, src) -> Ok [ (name, src) ]
    in
    match sources with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 2
    | Ok sources ->
        handle_errors (fun () ->
            (* the matrix axes are the scheduler and allocator vocabularies *)
            let points =
              let module K = Flow.Knob in
              if matrix then
                List.concat_map
                  (fun s ->
                    List.map
                      (fun a ->
                        ( { base with Flow.scheduler = s; allocator = a },
                          Some (K.scheduler.K.label s ^ "," ^ K.allocator.K.label a) ))
                      (K.values K.allocator))
                  (K.values K.scheduler)
              else [ (base, None) ]
            in
            let reports =
              List.concat_map
                (fun (name, src) ->
                  let eng = Dse.create src in
                  List.map
                    (fun (options, axes) ->
                      let label =
                        match axes with
                        | Some axes -> Printf.sprintf "%s[%s]" name axes
                        | None -> name
                      in
                      (* Result API: a design that fails the structural
                         netlist checks is itself a lint report *)
                      match Dse.eval_result eng options with
                      | Ok d -> (label, Lint.run ~floor d)
                      | Error ds ->
                          (label, Hls_analysis.Diagnostic.filter ~floor ds))
                    points)
                sources
            in
            (if json then
               let objs = List.map (fun (label, ds) -> Lint.to_json ~name:label ds) reports in
               print_string
                 (Hls_util.Json.to_string
                    (match objs with [ o ] -> o | _ -> Hls_util.Json.Arr objs))
             else
               List.iter (fun (label, ds) -> print_string (Lint.render ~name:label ds)) reports);
            if List.exists (fun (_, ds) -> Lint.has_errors ds) reports then exit 1)
  in
  let info =
    Cmd.info "lint"
      ~doc:
        "Run every IR-level checker (CDFG, schedule, allocation, netlist, controller, \
         microcode) over a synthesized design and report structured diagnostics. Exits \
         non-zero if any error-severity diagnostic is found."
  in
  Cmd.v info
    Term.(
      const run $ source_term $ lint_all_flag $ matrix_flag $ json_flag $ floor_arg
      $ rules_flag $ options_term)

(* ---- analyze ---- *)

let analyze_cmd =
  let run source options json trace_out metrics =
    with_source source (fun ~name ~src ->
        handle_errors (fun () ->
            start_tracing trace_out;
            let c = Flow.frontend src in
            let o =
              Flow.midend ~passes:options.Flow.passes
                ~if_conversion:options.Flow.if_conversion c
            in
            let ports = Flow.ports_of o.Flow.o_prog in
            let facts = Hls_analysis.Range.analyze ~ports o.Flow.o_cfg in
            let widths = Hls_analysis.Range.var_widths facts in
            (* boundary range per variable: join of its value at every
               reachable block entry *)
            let module R = Hls_analysis.Range in
            let joined : (string, R.aval) Hashtbl.t = Hashtbl.create 16 in
            List.iter
              (fun bid ->
                match R.entry_env facts ~bid with
                | None -> ()
                | Some env ->
                    List.iter
                      (fun (v, a) ->
                        match Hashtbl.find_opt joined v with
                        | None -> Hashtbl.replace joined v a
                        | Some b -> Hashtbl.replace joined v (R.join a b))
                      env)
              (Hls_cdfg.Cfg.block_ids o.Flow.o_cfg);
            let dead = R.dead_edges facts in
            let ds = Hls_analysis.Width_check.check ~facts ~ports o.Flow.o_cfg in
            (if json then
               let var_obj (v, declared, inferred) =
                 let base =
                   [
                     ("name", Hls_util.Json.Str v);
                     ("declared_bits", Hls_util.Json.of_int declared);
                     ("inferred_bits", Hls_util.Json.of_int inferred);
                   ]
                 in
                 let range =
                   match Hashtbl.find_opt joined v with
                   | Some a ->
                       [
                         ("lo", Hls_util.Json.of_int a.R.iv.Hls_util.Interval.lo);
                         ("hi", Hls_util.Json.of_int a.R.iv.Hls_util.Interval.hi);
                       ]
                   | None -> []
                 in
                 Hls_util.Json.Obj (base @ range)
               in
               let edge_obj (src, dst, taken) =
                 Hls_util.Json.Obj
                   [
                     ("from", Hls_util.Json.of_int src);
                     ("to", Hls_util.Json.of_int dst);
                     ("condition", Hls_util.Json.Bool taken);
                   ]
               in
               print_string
                 (Hls_util.Json.to_string
                    (Hls_util.Json.Obj
                       [
                         ("name", Hls_util.Json.Str name);
                         ("variables", Hls_util.Json.Arr (List.map var_obj widths));
                         ("dead_edges", Hls_util.Json.Arr (List.map edge_obj dead));
                         ( "diagnostics",
                           Hls_util.Json.Arr
                             (List.map
                                (fun d ->
                                  Hls_util.Json.Str
                                    (Hls_analysis.Diagnostic.to_string d))
                                ds) );
                       ]))
             else begin
               Printf.printf "%s: inferred value ranges (passes %s)\n" name
                 (Hls_transform.Passes.pipeline_to_string options.Flow.passes);
               Printf.printf "  %-12s %9s %9s  %s\n" "variable" "declared" "inferred"
                 "boundary range";
               List.iter
                 (fun (v, declared, inferred) ->
                   let range =
                     match Hashtbl.find_opt joined v with
                     | Some a -> Format.asprintf "%a" R.pp_aval a
                     | None -> "-"
                   in
                   Printf.printf "  %-12s %9d %9d  %s\n" v declared inferred range)
                 widths;
               List.iter
                 (fun (src, dst, taken) ->
                   Printf.printf "  dead edge: b%d -> b%d (condition always %b)\n" src
                     dst taken)
                 dead;
               if ds <> [] then begin
                 print_endline "diagnostics:";
                 List.iter
                   (fun d ->
                     Printf.printf "  %s\n" (Hls_analysis.Diagnostic.to_string d))
                   ds
               end
             end);
            finish_tracing trace_out metrics))
  in
  let info =
    Cmd.info "analyze"
      ~doc:
        "Run the value-range and bitwidth inference over the optimized CDFG and report \
         per-variable boundary ranges, declared vs inferred widths, dead branch edges \
         and the RANGE/WIDTH diagnostics. $(b,--json) emits the same report as JSON."
  in
  Cmd.v info
    Term.(const run $ source_term $ options_term $ json_flag $ trace_out_flag $ metrics_flag)

(* ---- run ---- *)

let inputs_arg =
  Arg.(
    value & opt_all string []
    & info [ "input"; "i" ] ~docv:"NAME=VALUE"
        ~doc:"Input port value (decimal; floats allowed for fixed-point ports). Repeatable.")

let vcd_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "vcd" ] ~docv:"FILE" ~doc:"Dump a VCD waveform of the run to FILE.")

let run_cmd =
  let run source options inputs vcd =
    with_source source (fun ~name:_ ~src ->
        handle_errors (fun () ->
            let d =
              match Flow.synthesize_result ~options src with
              | Ok d -> d
              | Error ds -> report_lint_failure ds
            in
            let port_ty name =
              match
                List.find_opt (fun (n, _, _) -> n = name) (Flow.ports_of d.Flow.prog)
              with
              | Some (_, _, ty) -> ty
              | None ->
                  Printf.eprintf "error: no port %s\n" name;
                  exit 1
            in
            let parse_input s =
              match String.index_opt s '=' with
              | None ->
                  Printf.eprintf "error: input %S is not NAME=VALUE\n" s;
                  exit 1
              | Some i ->
                  let name = String.sub s 0 i in
                  let v = String.sub s (i + 1) (String.length s - i - 1) in
                  (name, Hls_sim.Beh_sim.to_raw (port_ty name) (float_of_string v))
            in
            let inputs = List.map parse_input inputs in
            let r =
              match vcd with
              | Some path ->
                  let r = Hls_sim.Vcd.dump_to_file d.Flow.datapath ~inputs ~path in
                  Printf.printf "wrote %s\n" path;
                  r
              | None -> Hls_sim.Rtl_sim.run d.Flow.datapath ~inputs
            in
            Printf.printf "finished in %d cycles\n" r.Hls_sim.Rtl_sim.cycles;
            List.iter
              (fun (name, _, ty) ->
                match List.assoc_opt name r.Hls_sim.Rtl_sim.finals with
                | Some raw ->
                    Printf.printf "%s = %g (raw %d)\n" name
                      (Hls_sim.Beh_sim.of_raw ty raw) raw
                | None -> ())
              (List.filter (fun (_, d, _) -> d = `Out) (Flow.ports_of d.Flow.prog))))
  in
  let info = Cmd.info "run" ~doc:"Synthesize and simulate the RTL on given inputs." in
  Cmd.v info Term.(const run $ source_term $ options_term $ inputs_arg $ vcd_out)

(* ---- dse ---- *)

let all_flag =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"Sweep the full scheduler × limits cross product instead of limits only.")

let timings_flag =
  Arg.(
    value & flag
    & info [ "timings" ] ~doc:"Append the per-stage wall-clock breakdown to the table.")

let prune_flag =
  Arg.(
    value & flag
    & info [ "prune" ]
        ~doc:
          "Prune the sweep with pareto-guided successive halving: every point runs \
           the cheap stages, but only promising backend classes are promoted through \
           allocation/binding/control. The reported frontier is identical to the \
           exhaustive sweep's.")

let cosim_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cosim" ] ~docv:"N"
        ~doc:
          "Co-simulate each Pareto-frontier design on N random input vectors \
           (behavioral vs CDFG vs batched RTL) after the sweep.")

let sweep_passes_arg =
  Arg.(
    value
    & opt_all (let (Flow.Knob.Words w) = Flow.Knob.passes.kind in words_conv Flow.Knob.passes w) []
    & info [ "sweep-passes" ] ~docv:"SPEC"
        ~doc:
          "Add a pipeline spec to the sweep (repeatable). With two or more \
           specs the sweep crosses pipelines with schedulers and limits, so \
           fixed pipelines and cost-guided extraction land in one trade-off \
           table.")

let dse_term =
  let run source base jobs all timings prune cosim sweep_passes trace_out metrics =
    with_source source (fun ~name:_ ~src ->
        handle_errors (fun () ->
            start_tracing trace_out;
            let config = { Dse.default_config with Dse.jobs } in
            let schedulers =
              if all then None else Some [ base.Flow.scheduler ]
            in
            let pipelines = match sweep_passes with [] -> None | ps -> Some ps in
            (* with --iterate N the sweep crosses a refinement axis, so
               iterated points land in the same trade-off table as every
               one-shot scheduler *)
            let iterates =
              if base.Flow.iterate > 0 then Some [ 0; base.Flow.iterate ] else None
            in
            let points =
              if prune then begin
                let pr =
                  Explore.sweep_pruned ~config ~base ?schedulers ?pipelines ?iterates
                    src
                in
                Printf.printf
                  "pruned %d of %d points before the backend (%d rounds)\n"
                  (List.length pr.Explore.pruned)
                  (List.length pr.Explore.evaluated + List.length pr.Explore.pruned)
                  pr.Explore.rounds;
                pr.Explore.evaluated
              end
              else Explore.sweep ~config ~base ?schedulers ?pipelines ?iterates src
            in
            print_string (Explore.table ~timings points);
            (match cosim with
            | None -> ()
            | Some runs ->
                List.iter
                  (fun (p : Explore.point) ->
                    match
                      Hls_sim.Cosim.check_random ~runs (Flow.cosim_design p.Explore.design)
                    with
                    | Ok () ->
                        Printf.printf "cosim %-24s ok (%d vectors)\n" p.Explore.label runs
                    | Error e ->
                        Printf.eprintf "cosim %-24s FAILED: %s\n" p.Explore.label e;
                        exit 1)
                  (Explore.pareto points));
            finish_tracing trace_out metrics))
  in
  Term.(
    const run $ source_term $ options_term $ jobs_arg $ all_flag $ timings_flag
    $ prune_flag $ cosim_arg $ sweep_passes_arg $ trace_out_flag $ metrics_flag)

let dse_doc =
  "Sweep resource limits (or, with $(b,--all), the scheduler × limits \
   cross product) through the memoized DSE engine; print the trade-off table. \
   $(b,--sweep-passes) adds a pipeline dimension to the sweep; $(b,--prune) \
   promotes only promising points through the backend; $(b,--cosim) \
   verifies the frontier designs by three-level co-simulation."

let dse_cmd = Cmd.v (Cmd.info "dse" ~doc:dse_doc) dse_term

(* ---- trace ---- *)

let trace_out_arg =
  Arg.(
    value & opt string "-"
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Write the Chrome trace_event JSON to FILE (default stdout).")

let sweep_flag =
  Arg.(
    value & flag
    & info [ "sweep" ]
        ~doc:"Trace the full scheduler × limits sweep instead of one synthesis.")

let validate_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "validate" ] ~docv:"FILE"
        ~doc:
          "Validate an emitted trace instead of synthesizing: parse FILE, check the \
           trace_event shape and the pipeline-stage coverage.")

let validate_trace file =
  let text =
    match read_file file with
    | Ok text -> text
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
  in
  match Hls_util.Json.parse text with
  | Error e ->
      Printf.eprintf "%s: JSON parse error: %s\n" file e;
      exit 1
  | Ok json -> (
      match Metrics.validate_chrome json with
      | Error e ->
          Printf.eprintf "%s: invalid Chrome trace: %s\n" file e;
          exit 1
      | Ok () ->
          let covered = Metrics.covered_stages json in
          let missing =
            List.filter (fun s -> not (List.mem s covered)) Metrics.pipeline_stages
          in
          if missing <> [] then begin
            Printf.eprintf "%s: missing pipeline stages: %s\n" file
              (String.concat ", " missing);
            exit 1
          end;
          Printf.printf "%s: valid Chrome trace covering all %d pipeline stages\n" file
            (List.length Metrics.pipeline_stages))

let trace_cmd =
  let run validate source options out sweep jobs metrics =
    match validate with
    | Some file -> validate_trace file
    | None ->
        with_source source (fun ~name:_ ~src ->
            handle_errors (fun () ->
                Hls_obs.Trace.reset ();
                Hls_obs.Trace.enable ();
                (if sweep then begin
                   let config = { Dse.default_config with Dse.jobs } in
                   ignore (Explore.sweep ~config ~base:options src)
                 end
                 else
                   match Flow.synthesize_result ~options src with
                   | Ok _ -> ()
                   | Error ds -> report_lint_failure ds);
                write_chrome_trace out;
                if metrics then print_string (Metrics.render_counters ())))
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Synthesize (or, with $(b,--sweep), sweep) under the structured event tracer \
         and emit the spans and counters as Chrome trace_event JSON \
         (chrome://tracing, Perfetto). $(b,--validate) checks an emitted file instead."
  in
  Cmd.v info
    Term.(
      const run $ validate_arg $ source_term $ options_term $ trace_out_arg $ sweep_flag
      $ jobs_arg $ metrics_flag)

(* ---- serve ---- *)

let serve_cmd =
  let run socket stdio cache_dir max_queue workers jobs verify =
    let config = { Hls_serve.Server.workers; max_queue; jobs; verify; cache_dir } in
    handle_errors (fun () ->
        let server = Hls_serve.Server.create ~config () in
        match (socket, stdio) with
        | Some path, false ->
            Printf.eprintf "hlsc serve: listening on %s\n%!" path;
            Hls_serve.Server.serve_unix server ~path
        | None, true ->
            Hls_serve.Server.serve_frames server ~input:Unix.stdin ~output:Unix.stdout
        | Some _, true ->
            Printf.eprintf "error: give --socket or --stdio, not both\n";
            exit 1
        | None, false ->
            Printf.eprintf "error: give --socket PATH or --stdio\n";
            exit 1)
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen for clients on a Unix socket at PATH.")
  in
  let stdio_flag =
    Arg.(
      value & flag
      & info [ "stdio" ] ~doc:"Serve one client over length-prefixed frames on stdin/stdout.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist evaluated designs to a content-addressed store under DIR, so a \
             restarted daemon answers repeated requests from disk.")
  in
  let queue_arg =
    Arg.(
      value & opt int Hls_serve.Server.default_config.Hls_serve.Server.max_queue
      & info [ "queue" ] ~docv:"N"
          ~doc:"Refuse (typed $(b,busy) response) past N queued connections.")
  in
  let workers_arg =
    Arg.(
      value & opt int Hls_serve.Server.default_config.Hls_serve.Server.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Handler domains serving connections.")
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run as a long-lived daemon answering synth/dse/lint requests as \
         length-prefixed JSON frames over a Unix socket ($(b,--socket)) or \
         stdin/stdout ($(b,--stdio)), with bounded-queue backpressure and an \
         optional persistent design cache ($(b,--cache-dir))."
  in
  Cmd.v info
    Term.(
      const run $ socket_arg $ stdio_flag $ cache_dir_arg $ queue_arg $ workers_arg
      $ jobs_arg $ verify_flag)

(* ---- passes ---- *)

let passes_cmd =
  let module P = Hls_transform.Passes in
  let module R = Hls_transform.Rules in
  let module E = Hls_transform.Extract in
  let run json =
    if json then
      let pass_obj (p : P.t) =
        Hls_util.Json.Obj
          [ ("name", Hls_util.Json.Str p.P.name); ("descr", Hls_util.Json.Str p.P.descr) ]
      in
      let rule_obj (r : R.t) =
        Hls_util.Json.Obj
          [
            ("name", Hls_util.Json.Str r.R.name);
            ("group", Hls_util.Json.Str r.R.group);
            ("descr", Hls_util.Json.Str r.R.descr);
          ]
      in
      let pipeline_obj (name, (p : P.pipeline)) =
        Hls_util.Json.Obj
          [
            ("name", Hls_util.Json.Str name);
            ( "passes",
              Hls_util.Json.Arr
                (List.map (fun n -> Hls_util.Json.Str n) p.P.passes) );
            ("fold_facts", Hls_util.Json.Bool p.P.fold_facts);
            ( "extract",
              match p.P.extract with
              | None -> Hls_util.Json.Null
              | Some o -> Hls_util.Json.Str (E.objective_to_string o) );
          ]
      in
      print_string
        (Hls_util.Json.to_string
           (Hls_util.Json.Obj
              [
                ("passes", Hls_util.Json.Arr (List.map pass_obj P.all));
                ("rules", Hls_util.Json.Arr (List.map rule_obj R.all));
                ( "pipelines",
                  Hls_util.Json.Arr (List.map pipeline_obj P.named_pipelines) );
              ]))
    else begin
      print_endline "passes (use with --passes PASS,PASS,...):";
      List.iter (fun (p : P.t) -> Printf.printf "  %-22s %s\n" p.P.name p.P.descr) P.all;
      print_endline "";
      print_endline "rewrite rules (pass rule:NAME, or a whole group as rules:GROUP):";
      List.iter
        (fun g ->
          Printf.printf "  group %s:\n" g;
          List.iter
            (fun (r : R.t) -> Printf.printf "    %-20s %s\n" r.R.name r.R.descr)
            (R.group g))
        R.groups;
      print_endline "";
      print_endline "named pipelines (modifiers: +facts, +extract:area, +extract:latency):";
      List.iter
        (fun (name, (p : P.pipeline)) ->
          let mods =
            (if p.P.fold_facts then [ "facts" ] else [])
            @
            match p.P.extract with
            | None -> []
            | Some o -> [ "extract:" ^ E.objective_to_string o ]
          in
          Printf.printf "  %-12s = %s%s\n" name
            (if p.P.passes = [] then "(no passes)" else String.concat "," p.P.passes)
            (if mods = [] then "" else " + " ^ String.concat " + " mods))
        P.named_pipelines
    end
  in
  let info =
    Cmd.info "passes"
      ~doc:
        "List the registered optimization passes, the declarative rewrite rules \
         behind them (with their groups), and the named pipelines a \
         $(b,--passes) spec can start from. $(b,--json) emits the same \
         catalogue as JSON."
  in
  Cmd.v info Term.(const run $ json_flag)

(* ---- examples ---- *)

let examples_cmd =
  let run () =
    List.iter (fun (name, _) -> print_endline name) Workloads.all
  in
  let info = Cmd.info "examples" ~doc:"List built-in workloads." in
  Cmd.v info Term.(const run $ const ())

let () =
  let info =
    Cmd.info "hlsc" ~version:"1.0.0"
      ~doc:"High-level synthesis: behavioral specifications to RTL structures."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            synth_cmd; dse_cmd; lint_cmd; analyze_cmd; trace_cmd; run_cmd;
            serve_cmd; passes_cmd; examples_cmd;
          ]))
