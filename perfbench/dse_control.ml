(* dse_control: one request is what `hlsc dse --all --prune --cosim 8`
   does. Explore.sweep_pruned runs the default 8 schedulers x 5 limits
   on a fresh Dse engine (jobs = 1), then every frontier design is
   co-simulated on 8 vectors.

   Inputs: five of the six built-in paper workloads, plus seeded branchy
   programs whose blocks stay at or under 12 operations,
   so 0/1 programming and branch-and-bound search exactly. Shapes keep
   the controller's Quine-McCluskey inputs at 7-9, below the point where
   one minimization takes seconds. The schedulers (0/1 programming,
   branch-and-bound, force-directed), Explore.Bound, the staged memo, QM
   on branchy FSMs and RTL simulation do the work here; interconnect is
   small.

   biquad3 is left out: branch-and-bound on its flat 24-operation block
   under the serial limit does not finish within a minute, so a sweep
   over it would not end inside a run.

   Traced, the request first ranks every point through Dse.eval_cheap
   and Explore.Bound.compute under their own spans, then runs the sweep
   on the same engine, whose cheap stages are then memo hits. *)

open Hls_core

let paper = List.filter (fun (n, _) -> n <> "biquad3") Workloads.all

(* (diamonds, loops) shapes, one statement per straight-line stretch.
   One-construct shapes give controllers of 5 QM inputs (a sweep takes
   about 7 ms), two-construct ones 7 (about 30 ms) and three-construct
   ones 8 (about 100 ms). A fourth construct gives 10 inputs and 1-2 s
   per sweep, too slow for a run. Counts: 4 light programs + the 5 paper
   workloads, 27 with 7 inputs, 9 with 8, so the median request falls in
   the middle of the 7-input class and the 90th percentile in the middle
   of the 8-input class. *)
let shapes =
  [ (1, 0); (0, 1); (1, 0); (0, 1) ]
  @ List.concat (List.init 9 (fun _ -> [ (2, 0); (1, 1); (0, 2) ]))
  @ List.concat (List.init 3 (fun _ -> [ (3, 0); (2, 1); (1, 2) ]))

type prog = { name : string; source : string; vec_seed : int }
type env = { progs : prog array; checked : (string, unit) Hashtbl.t }

let programs ~seed =
  let rng = Gen.rng_of seed 3 in
  let branchy =
    List.mapi
      (fun idx (diamonds, loops) ->
        let p = Gen.branchy rng ~diamonds ~loops ~idx in
        (p.Gen.name, p.Gen.source))
      shapes
  in
  (* The paper workloads take the same vectors on every seed: gcd's
     simulated cycles, and so its co-simulation time, grow with the
     values drawn, and it would make one seed's runs look slow. *)
  List.map (fun (name, source) -> { name; source; vec_seed = Hashtbl.hash name }) paper
  @ List.map
      (fun (name, source) -> { name; source; vec_seed = Hashtbl.hash (seed, name) })
      branchy

let setup ~seed ~scratch:_ =
  let progs = Array.of_list (programs ~seed) in
  Array.iter (fun p -> ignore (Flow.frontend p.source)) progs;
  (* warm-up: one sweep of every paper workload *)
  List.iter (fun (_, src) -> ignore (Explore.sweep_pruned ~engine:(Dse.create src) src)) paper;
  { progs; checked = Hashtbl.create 16 }

let n_points =
  List.length Explore.default_schedulers * List.length Explore.default_limits

(* Traced only: rank every point through the cheap stages and the
   bounds, each call under its own span. *)
let rank engine =
  let points =
    Explore.cross ~base:Flow.default_options ~schedulers:Explore.default_schedulers
      ~limits:Explore.default_limits ()
  in
  List.iteri
    (fun i (_, (options : Flow.options)) ->
      let o, sched =
        Spans.with_ ~opaque:true
          ~attrs:[ ("scheduler", Flow.scheduler_to_string options.scheduler) ]
          "core.dse.cheap"
          (fun () -> Dse.eval_cheap engine options)
      in
      if i = 0 then begin
        Spans.add "cdfg.ops" (Synth_dsp.count_ops o.Flow.o_cfg);
        Spans.add "cdfg.blocks" (Hls_cdfg.Cfg.n_blocks o.Flow.o_cfg)
      end;
      ignore
        (Spans.with_ "core.explore.bound" (fun () -> Explore.Bound.compute options o sched)))
    points

let frontier_key (ps : Explore.point list) =
  List.map (fun (p : Explore.point) -> (p.label, p.area, p.latency_ns, Dse.design_digest p.design)) ps

let cycle env meter =
  Array.iter
    (fun p ->
      let traced = !Spans.enabled in
      Meter.request meter ~points:n_points
        ~attrs:[ ("program", p.name) ]
        (fun () ->
          let engine = Dse.create p.source in
          if traced then rank engine;
          let pr =
            Spans.with_ ~opaque:true "core.dse.backend" (fun () -> Explore.sweep_pruned ~engine p.source)
          in
          let front = Explore.pareto pr.evaluated in
          let cosims =
            List.map
              (fun (pt : Explore.point) ->
                Spans.with_ "sim.cosim" (fun () ->
                    Hls_sim.Cosim.check_random ~runs:8 ~seed:p.vec_seed
                      (Flow.cosim_design pt.design)))
              front
          in
          (pr, front, cosims))
        (fun (pr, front, cosims) ->
          let ( let* ) = Result.bind in
          if traced then
            List.iter
              (fun (pt : Explore.point) -> Synth_dsp.note_design pt.design)
              pr.evaluated;
          List.iter
            (fun (pt : Explore.point) ->
              Meter.quality meter ~area:pt.area ~latency_ns:pt.latency_ns)
            front;
          let* () =
            Result.map_error (Printf.sprintf "%s: cosim %s" p.name) (Meter.all_ok cosims)
          in
          if Hashtbl.mem env.checked p.name then Ok ()
          else begin
            Hashtbl.replace env.checked p.name ();
            let exhaustive = Explore.pareto (Explore.sweep p.source) in
            if frontier_key exhaustive = frontier_key front then Ok ()
            else Error (Printf.sprintf "%s: pruned frontier differs from exhaustive" p.name)
          end))
    env.progs
