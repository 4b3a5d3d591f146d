(* Design-space exploration on the HAL differential-equation benchmark:
   sweep resource limits and schedulers, print both trade-off tables and
   the Pareto front — the "ability to search the design space" of
   section 1.2.

   Both sweeps run through one shared DSE engine, so the second sweep
   reuses the first's frontend/midend (and any coinciding schedules and
   backends) from the cache, on worker domains when the hardware has
   them ([-j N] to override).

     dune exec examples/diffeq_dse.exe *)

open Hls_core

let jobs =
  let rec find = function
    | "-j" :: n :: _ -> ( try int_of_string n with _ -> 4)
    | _ :: rest -> find rest
    | [] -> 4
  in
  find (Array.to_list Sys.argv)

let () =
  let src = Workloads.diffeq in
  let engine = Dse.create ~config:{ Dse.default_config with Dse.jobs } src in
  Timing.reset ();
  print_endline "== resource-limit sweep (list scheduling) ==";
  let by_limits = Explore.sweep ~engine ~schedulers:[ Flow.List_path ] src in
  print_string (Explore.table by_limits);

  print_endline "\n== scheduler sweep (two functional units) ==";
  let by_sched = Explore.sweep ~engine ~limits:[ Hls_sched.Limits.two_fu ] src in
  print_string (Explore.table ~timings:true by_sched);

  print_endline "\n== Pareto frontier over both sweeps ==";
  let front = Explore.pareto (by_limits @ by_sched) in
  List.iter
    (fun (p : Explore.point) ->
      Printf.printf "  %-28s area %6d  latency %6.0f ns\n" p.Explore.label
        p.Explore.area p.Explore.latency_ns)
    front;

  print_endline "\n== engine cache ==";
  Format.printf "%a" Dse.pp_stats (Dse.stats engine);

  (* every explored design still computes the right answer *)
  let bad = ref 0 in
  List.iter
    (fun (p : Explore.point) ->
      match Flow.verify ~runs:5 p.Explore.design with
      | Ok () -> ()
      | Error e ->
          incr bad;
          Printf.printf "VERIFY FAILED (%s): %s\n" p.Explore.label e)
    (by_limits @ by_sched);
  if !bad = 0 then
    Printf.printf "\nall %d explored designs verified by co-simulation\n"
      (List.length by_limits + List.length by_sched)
