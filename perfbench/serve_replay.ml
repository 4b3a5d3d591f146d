(* serve_replay: a closed loop with one client sending a seeded stream
   of synth and small dse JSON requests to an in-process
   Server.handle_text, with the persistent design cache in a fresh
   directory under the run's scratch directory. No socket.

   Requests draw on a pool of 8 generated programs x 3 request items
   (two synth points and one two-point dse request, each with its own
   option points), and most of them repeat. One cycle is an episode of
   288 requests: the first 144 go to one server, then a new server is
   created on the same directory, so each item's first request in the
   second half is a disk read and later repeats are memory hits. Every
   episode starts from an empty directory, so each has the same mix:
   8.3% misses, 8.3% disk hits, 83.3% memory hits. The request/option codec,
   the Dse persist layer and Disk_cache Marshal/digest do the work;
   pipeline stages run only for the misses.

   Every response must be ok, with a design_hash equal to
   Dse.design_digest of a direct Dse.eval_result of the same point. *)

open Hls_core
module J = Hls_util.Json
module Server = Hls_serve.Server
module Proto = Hls_serve.Proto
module Trace = Hls_obs.Trace

type cls = Miss | Mem | Disk

let cls_name = function Miss -> "miss" | Mem -> "mem_hit" | Disk -> "disk_hit"

type item = {
  id : int;
  source : string;
  points : Flow.options list;  (** one for synth, two for dse *)
  text : string;
}

type env = {
  stream : (item * cls) array array;  (** the two halves of an episode *)
  expected : (int, string list) Hashtbl.t;  (** item id -> design hashes *)
  scratch : string;
}

let option_points =
  let o = Flow.default_options in
  [|
    { o with Flow.scheduler = Flow.List_path };
    { o with Flow.scheduler = Flow.List_path; limits = Hls_sched.Limits.Total 3; allocator = `Clique };
    { o with Flow.scheduler = Flow.Force_directed 0 };
    { o with Flow.scheduler = Flow.Branch_bound };
  |]

(* Small programs, so a miss costs milliseconds and an episode stays
   short enough for many episodes per run. Sizes are fixed; the seed
   draws coefficients and operators. The two two-construct branchy
   programs are the costliest misses, a quarter of them, so the 99th
   percentile (the 87.5th of the misses) falls inside that group and not
   on the gap below it. *)
let programs ~seed =
  let rng = Gen.rng_of seed 4 in
  [
    Gen.fir rng ~taps:(Gen.jitter rng ~base:12 ~step:2);
    Gen.fir rng ~taps:(Gen.jitter rng ~base:20 ~step:2);
    Gen.biquad rng ~sections:2;
    Gen.biquad rng ~sections:4;
    Gen.branchy rng ~diamonds:1 ~loops:0 ~idx:0;
    Gen.branchy rng ~diamonds:0 ~loops:1 ~idx:1;
    Gen.branchy rng ~diamonds:2 ~loops:0 ~idx:2;
    Gen.branchy rng ~diamonds:0 ~loops:2 ~idx:3;
  ]

let request_text source points =
  let fields =
    match points with
    | [ o ] -> [ ("cmd", J.Str "synth"); ("options", Proto.options_to_json o) ]
    | ps -> [ ("cmd", J.Str "dse"); ("points", J.Arr (List.map Proto.options_to_json ps)) ]
  in
  J.to_string (J.Obj (fields @ [ ("source", J.Str source); ("proto", J.of_int Proto.version) ]))

(* Per program: two synth items and one two-point dse item, ids
   consecutive. *)
let item_points =
  [ [ option_points.(0) ]; [ option_points.(1) ]; [ option_points.(2); option_points.(3) ] ]

let items_per_program = List.length item_points

let make_items progs =
  List.concat_map
    (fun (p : Gen.program) -> List.map (fun points -> (p.source, points)) item_points)
    progs
  |> List.mapi (fun id (source, points) -> { id; source; points; text = request_text source points })
  |> Array.of_list

(* One half of an episode: every item is introduced once, then
   repeated [repeats] times, the repeats in a seeded order. An
   introduction is [first]; a repeat is a memory hit. Programs are
   introduced in a seeded order, each program's items in a fixed one:
   the first miss on a program also pays its frontend and midend, and
   that should be the same item on every seed. Balanced repeats keep
   the mix of memory hits the same on every seed too. *)
let repeats = 5

let make_half rng items ~first =
  let n = Array.length items in
  let programs = Array.init (n / items_per_program) Fun.id in
  Synth_dsp.shuffle rng programs;
  let intro =
    Array.init n (fun k ->
        (items.((programs.(k / items_per_program) * items_per_program) + (k mod items_per_program)), first))
  in
  let again = Array.concat (List.init repeats (fun _ -> Array.map (fun it -> (it, Mem)) items)) in
  Synth_dsp.shuffle rng again;
  Array.append intro again

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let counter = ref 0

let fresh_dir scratch =
  incr counter;
  let dir = Filename.concat scratch (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let server dir =
  Server.create
    ~config:{ Server.default_config with Server.workers = 1; jobs = 1; cache_dir = Some dir }
    ()

let setup ~seed ~scratch =
  let progs = programs ~seed in
  List.iter (fun (p : Gen.program) -> ignore (Flow.frontend p.source)) progs;
  let items = make_items progs in
  let rng = Gen.rng_of seed 5 in
  let stream = [| make_half rng items ~first:Miss; make_half rng items ~first:Disk |] in
  (* warm-up: a server on a throwaway directory answers a ping and
     one synth of every program in the pool *)
  let dir = fresh_dir scratch in
  let s = server dir in
  ignore (Server.handle_text s {|{"cmd":"ping"}|});
  List.iter
    (fun (p : Gen.program) ->
      ignore (Server.handle_text s (request_text p.source [ Flow.default_options ])))
    progs;
  rm_rf dir;
  { stream; expected = Hashtbl.create 32; scratch }

let hashes resp =
  match J.str_member "status" resp with
  | Some "ok" -> (
      match J.member "design" resp with
      | Some d -> Option.to_list (J.str_member "design_hash" d)
      | None -> (
          match J.member "points" resp with
          | Some (J.Arr ps) -> List.filter_map (J.str_member "design_hash") ps
          | _ -> []))
  | Some s ->
      failwith
        (Printf.sprintf "status %s: %s" s
           (Option.value ~default:"" (J.str_member "error" resp)))
  | None -> failwith "response without status"

let summaries resp =
  match J.member "design" resp with
  | Some d -> [ d ]
  | None -> ( match J.member "points" resp with Some (J.Arr ps) -> ps | _ -> [])

(* Design hashes of a direct evaluation on a fresh engine, once per
   item. *)
let expected env it =
  match Hashtbl.find_opt env.expected it.id with
  | Some h -> h
  | None ->
      let engine = Dse.create it.source in
      let h =
        List.map
          (fun o ->
            match Dse.eval_result engine o with
            | Ok d -> Dse.design_digest d
            | Error _ -> "error")
          it.points
      in
      Hashtbl.replace env.expected it.id h;
      h

let cycle env meter =
  let dir = fresh_dir env.scratch in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Array.iter
        (fun h ->
          let server = server dir in
          Array.iter
            (fun (it, cls) ->
              let n = List.length it.points in
              let disk0 = Trace.counter "serve/disk_hits"
              and miss0 = Trace.counter "serve/disk_misses" in
              Meter.request meter ~points:n
                ~attrs:[ ("class", cls_name cls); ("item", string_of_int it.id) ]
                (fun () ->
                  if !Spans.enabled then
                    ignore
                      (Spans.with_ "serve.decode" (fun () ->
                           Result.map Proto.request_of_json (J.parse it.text)));
                  Spans.with_ ~opaque:true ~attrs:[ ("class", cls_name cls) ] "serve.handle"
                    (fun () -> Server.handle_text server it.text))
                (fun resp ->
                  (match J.str_member "status" resp with
                  | Some "error" -> Spans.add "serve.errors" 1
                  | Some "busy" -> Spans.add "serve.busy" 1
                  | _ -> ());
                  let got = hashes resp in
                  let disk = Trace.counter "serve/disk_hits" - disk0
                  and miss = Trace.counter "serve/disk_misses" - miss0 in
                  let want_disk, want_miss =
                    match cls with Miss -> (0, n) | Disk -> (n, 0) | Mem -> (0, 0)
                  in
                  if cls = Miss && meter.Meter.first_cycle then
                    List.iter
                      (fun d ->
                        match (J.int_member "area" d, J.member "latency_ns" d) with
                        | Some area, Some (J.Num l) -> Meter.quality meter ~area ~latency_ns:l
                        | _ -> ())
                      (summaries resp);
                  if (disk, miss) <> (want_disk, want_miss) then
                    Error
                      (Printf.sprintf "item %d expected %s, saw %d disk hits, %d disk misses"
                         it.id (cls_name cls) disk miss)
                  else if got <> expected env it then
                    Error (Printf.sprintf "item %d (%s): design_hash differs from direct eval" it.id (cls_name cls))
                  else Ok ()))
            h)
        env.stream)
