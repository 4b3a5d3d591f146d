(* Serve-layer tests: the disk cache (roundtrip, corruption reads as a
   miss), the persistent Dse layer (a fresh engine over the same cache
   dir answers from disk, bit-identically), exception-safety of the
   memoized engine (a raising eval must not wedge the next call), the
   bounded queue's deterministic admission, Pool.map survival after a
   raising item, the options wire codec (fds+K slack, class limits,
   unknown keys, decode . encode = id), and the server core: concurrent
   requests with deterministic counters, plus busy rejection over a
   real socket; torn stdio frames and an unwritable cache directory
   degrade to answers, never to exceptions. *)

open Hls_util
open Hls_core
module Serve = Hls_serve
module Trace = Hls_obs.Trace
module J = Json

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlsc_serve_test_%d_%d_%s" (Unix.getpid ()) !n tag)

let diffeq = List.assoc "diffeq" Workloads.all

(* ---- Disk_cache ---- *)

let test_disk_cache_roundtrip () =
  let dir = fresh_dir "rt" in
  Alcotest.(check bool) "store succeeds" true (Disk_cache.store ~dir ~key:"k1" "payload one");
  Alcotest.(check bool) "second key" true (Disk_cache.store ~dir ~key:"k2" "payload two");
  Alcotest.(check (option string)) "k1 back" (Some "payload one") (Disk_cache.load ~dir ~key:"k1");
  Alcotest.(check (option string)) "k2 back" (Some "payload two") (Disk_cache.load ~dir ~key:"k2");
  Alcotest.(check (option string)) "absent key misses" None (Disk_cache.load ~dir ~key:"k3");
  Alcotest.(check int) "two entries listed" 2 (List.length (Disk_cache.entries ~dir));
  Alcotest.(check bool) "overwrite succeeds" true (Disk_cache.store ~dir ~key:"k1" "updated");
  Alcotest.(check (option string)) "overwrite visible" (Some "updated")
    (Disk_cache.load ~dir ~key:"k1")

let test_disk_cache_corruption_is_miss () =
  let dir = fresh_dir "corrupt" in
  ignore (Disk_cache.store ~dir ~key:"k" "precious bytes");
  let path = Disk_cache.entry_path ~dir ~key:"k" in
  (* truncated mid-payload *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 3)));
  Alcotest.(check (option string)) "truncated entry misses" None (Disk_cache.load ~dir ~key:"k");
  (* outright garbage *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a cache entry");
  Alcotest.(check (option string)) "garbage entry misses" None (Disk_cache.load ~dir ~key:"k");
  (* empty file *)
  Out_channel.with_open_bin path (fun _ -> ());
  Alcotest.(check (option string)) "empty entry misses" None (Disk_cache.load ~dir ~key:"k");
  (* flipped payload byte behind a valid header *)
  ignore (Disk_cache.store ~dir ~key:"k" "precious bytes");
  let full = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string full in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  Alcotest.(check (option string)) "bit-flipped entry misses" None
    (Disk_cache.load ~dir ~key:"k")

(* ---- persistent Dse layer ---- *)

let cached_config dir =
  { Dse.default_config with Dse.cache_dir = Some dir }

let test_dse_disk_persistence () =
  let dir = fresh_dir "persist" in
  let opts = Flow.default_options in
  let e1 = Dse.create ~config:(cached_config dir) diffeq in
  let d1 =
    match Dse.eval_result e1 opts with Ok d -> d | Error _ -> Alcotest.fail "eval 1"
  in
  let hits0 = Trace.counter "serve/disk_hits" in
  (* a fresh engine models a daemon restart: empty in-memory tables,
     same store — the design must come back from disk, bit-identical *)
  let e2 = Dse.create ~config:(cached_config dir) diffeq in
  let d2 =
    match Dse.eval_result e2 opts with Ok d -> d | Error _ -> Alcotest.fail "eval 2"
  in
  Alcotest.(check bool) "disk hit on restart" true (Trace.counter "serve/disk_hits" > hits0);
  Alcotest.(check string) "bit-identical design" (Dse.design_digest d1) (Dse.design_digest d2);
  Alcotest.(check int) "frontend never ran in engine 2" 0 (Dse.stats e2).Dse.frontend.Dse.misses

let test_dse_corrupt_entry_recomputes () =
  let dir = fresh_dir "recompute" in
  let opts = Flow.default_options in
  let e1 = Dse.create ~config:(cached_config dir) diffeq in
  let d1 =
    match Dse.eval_result e1 opts with Ok d -> d | Error _ -> Alcotest.fail "eval 1"
  in
  (* corrupt every stored entry behind the engine's back *)
  List.iter
    (fun base ->
      let path = Filename.concat dir base in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "corrupt"))
    (Disk_cache.entries ~dir);
  let misses0 = Trace.counter "serve/disk_misses" in
  let e2 = Dse.create ~config:(cached_config dir) diffeq in
  let d2 =
    match Dse.eval_result e2 opts with Ok d -> d | Error _ -> Alcotest.fail "eval 2"
  in
  Alcotest.(check bool) "corrupt entry read as a miss" true
    (Trace.counter "serve/disk_misses" > misses0);
  Alcotest.(check string) "recompute reproduces the design" (Dse.design_digest d1)
    (Dse.design_digest d2)

let test_dse_exception_does_not_wedge () =
  (* a raising eval must release the single-flight slot: the next call
     on the same engine raises again promptly instead of blocking on a
     Pending entry nobody will ever complete *)
  let e = Dse.create ~config:(cached_config (fresh_dir "wedge")) "x :=" in
  let raises () =
    match Dse.eval_result e Flow.default_options with
    | exception Hls_lang.Ast.Frontend_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "first eval raises" true (raises ());
  Alcotest.(check bool) "second eval raises too (no wedge)" true (raises ());
  (* the engine's bookkeeping survives: stats and clear still work *)
  ignore (Dse.stats e);
  Dse.clear e;
  Alcotest.(check bool) "third eval after clear raises" true (raises ())

(* ---- bounded queue ---- *)

let test_bqueue_bound () =
  let q = Serve.Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "offer 1" true (Serve.Bqueue.offer q 1);
  Alcotest.(check bool) "offer 2" true (Serve.Bqueue.offer q 2);
  Alcotest.(check bool) "offer 3 refused at bound" false (Serve.Bqueue.offer q 3);
  Alcotest.(check (option int)) "fifo take" (Some 1) (Serve.Bqueue.take q);
  Alcotest.(check bool) "slot freed" true (Serve.Bqueue.offer q 4);
  Serve.Bqueue.close q;
  Alcotest.(check bool) "offer after close refused" false (Serve.Bqueue.offer q 5);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Serve.Bqueue.take q);
  Alcotest.(check (option int)) "drain 4" (Some 4) (Serve.Bqueue.take q);
  Alcotest.(check (option int)) "closed and drained" None (Serve.Bqueue.take q)

let test_bqueue_zero_capacity () =
  let q = Serve.Bqueue.create ~capacity:0 in
  Alcotest.(check bool) "capacity 0 refuses everything" false (Serve.Bqueue.offer q 1)

let test_bqueue_close_wakes_takers () =
  let q : int Serve.Bqueue.t = Serve.Bqueue.create ~capacity:4 in
  let taker = Domain.spawn (fun () -> Serve.Bqueue.take q) in
  Unix.sleepf 0.05;
  Serve.Bqueue.close q;
  Alcotest.(check (option int)) "blocked taker woken by close" None (Domain.join taker)

(* ---- Pool.map after a raising item ---- *)

let test_pool_usable_after_raise () =
  Alcotest.check_raises "original exception re-raised" (Failure "item 3 exploded")
    (fun () ->
      ignore
        (Pool.map ~jobs:2
           (fun x -> if x = 3 then failwith "item 3 exploded" else x * 10)
           (List.init 8 Fun.id)));
  (* no lane kept: the next map still completes *)
  Alcotest.(check (list int)) "map works after the raising map"
    (List.init 8 (fun x -> x * 10))
    (Pool.map ~jobs:2 (fun x -> x * 10) (List.init 8 Fun.id))

(* ---- server core ---- *)

let synth_req ?(fus = 2) () =
  J.Obj
    [
      ("cmd", J.Str "synth");
      ("workload", J.Str "diffeq");
      ("options", J.Obj [ ("fus", J.of_int fus) ]);
    ]

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let str_field name json =
  match J.str_member name json with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "response missing %S: %s" name (J.to_string json))

let design_hash json =
  match J.member "design" json with
  | Some d -> str_field "design_hash" d
  | None -> Alcotest.fail ("response missing design: " ^ J.to_string json)

let test_handle_synth_and_errors () =
  let t = Serve.Server.create () in
  let ok = Serve.Server.handle t (synth_req ()) in
  Alcotest.(check string) "synth ok" "ok" (str_field "status" ok);
  Alcotest.(check bool) "hash present" true (String.length (design_hash ok) = 32);
  (* malformed requests and broken sources answer, never raise *)
  let checks =
    [
      ("no cmd", J.Obj [ ("workload", J.Str "diffeq") ]);
      ("unknown cmd", J.Obj [ ("cmd", J.Str "frobnicate") ]);
      ("unknown workload", J.Obj [ ("cmd", J.Str "synth"); ("workload", J.Str "nope") ]);
      ("frontend error", J.Obj [ ("cmd", J.Str "synth"); ("source", J.Str "x :=") ]);
      ( "bad option",
        J.Obj
          [
            ("cmd", J.Str "synth");
            ("workload", J.Str "diffeq");
            ("options", J.Obj [ ("scheduler", J.Str "magic") ]);
          ] );
    ]
  in
  List.iter
    (fun (what, req) ->
      Alcotest.(check string) what "error" (str_field "status" (Serve.Server.handle t req)))
    checks;
  Alcotest.(check string) "bad JSON text" "error"
    (str_field "status" (Serve.Server.handle_text t "{nope"));
  (* distinct span ids per request *)
  let span r = Option.get (J.int_member "span" r) in
  let first = span (Serve.Server.handle t (synth_req ())) in
  let second = span (Serve.Server.handle t (synth_req ())) in
  Alcotest.(check bool) "fresh span ids" true (first < second)

let test_handle_concurrent_deterministic () =
  let dir = fresh_dir "concurrent" in
  let t =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with Serve.Server.cache_dir = Some dir }
      ()
  in
  let requests0 = Trace.counter "serve/requests" in
  let persist_miss0 = Trace.counter "dse/persist.misses" in
  let persist_hit0 = Trace.counter "dse/persist.hits" in
  let n = 4 in
  let workers =
    List.init n (fun _ -> Domain.spawn (fun () -> Serve.Server.handle t (synth_req ())))
  in
  let replies = List.map Domain.join workers in
  let hashes = List.map design_hash replies in
  List.iter (fun r -> Alcotest.(check string) "all ok" "ok" (str_field "status" r)) replies;
  Alcotest.(check int) "one shared engine" 1 (Serve.Server.engine_count t);
  (match hashes with
  | h :: rest -> List.iter (Alcotest.(check string) "identical designs" h) rest
  | [] -> Alcotest.fail "no replies");
  Alcotest.(check int) "serve/requests counts every request" n
    (Trace.counter "serve/requests" - requests0);
  (* single-flight: exactly one point computation, the rest are hits —
     for any interleaving of the n domains *)
  Alcotest.(check int) "one persist miss" 1 (Trace.counter "dse/persist.misses" - persist_miss0);
  Alcotest.(check int) "n-1 persist hits" (n - 1)
    (Trace.counter "dse/persist.hits" - persist_hit0)

(* ---- protocol: pipeline specs and versioning ---- *)

module P = Hls_transform.Passes

let test_proto_passes_codec () =
  let passes =
    match P.pipeline_of_string "aggressive+extract:latency" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let opts = { Flow.default_options with Flow.passes } in
  let j = Serve.Proto.options_to_json opts in
  Alcotest.(check (option string)) "canonical spec emitted"
    (Some "aggressive+extract:latency") (J.str_member "passes" j);
  match Serve.Proto.options_of_json j with
  | Ok o -> Alcotest.(check bool) "codec round-trip" true (o.Flow.passes = passes)
  | Error e -> Alcotest.fail e

let test_proto_opt_level_rejected () =
  (* protocol 1's opt_level is gone: like any unknown key, it is an
     error naming it and listing the known keys *)
  match Serve.Proto.options_of_json (J.Obj [ ("opt_level", J.Str "aggressive") ]) with
  | Ok _ -> Alcotest.fail "accepted opt_level"
  | Error e ->
      Alcotest.(check bool) "names the key and the known keys" true
        (contains e "\"opt_level\"" && contains e "passes" && contains e "iterate")

let test_proto_unknown_key () =
  (* a misspelled key must not silently fall back to the default *)
  match Serve.Proto.options_of_json (J.Obj [ ("fuss", J.of_int 0) ]) with
  | Ok _ -> Alcotest.fail "accepted fuss"
  | Error e ->
      Alcotest.(check bool) "names the key and lists fus" true
        (contains e "\"fuss\"" && contains e "fus,")

let roundtrip o =
  match Serve.Proto.options_of_json (Serve.Proto.options_to_json o) with
  | Ok o' -> o' = o
  | Error e -> Alcotest.fail e

let test_proto_fds_slack () =
  let fds k = { Flow.default_options with Flow.scheduler = Flow.Force_directed k } in
  List.iter
    (fun (k, word) ->
      Alcotest.(check (option string))
        (Printf.sprintf "slack %d spelled" k)
        (Some word)
        (J.str_member "scheduler" (Serve.Proto.options_to_json (fds k)));
      Alcotest.(check bool) (Printf.sprintf "slack %d round-trips" k) true (roundtrip (fds k)))
    [ (0, "fds"); (3, "fds+3"); (12, "fds+12") ]

let cross_points () =
  Explore.cross ~base:Flow.default_options ~schedulers:Explore.default_schedulers
    ~limits:Explore.default_limits ()

let test_proto_cross_points_survive () =
  let points = cross_points () in
  List.iter
    (fun (label, o) -> Alcotest.(check bool) (label ^ " survives the wire") true (roundtrip o))
    points;
  (* a class limit travels as its spec string, an integer limit as a number *)
  let classes = Hls_sched.Limits.Classes [ (Hls_cdfg.Op.C_alu, 1); (Hls_cdfg.Op.C_mul, 1); (Hls_cdfg.Op.C_div, 1) ] in
  let j = Serve.Proto.options_to_json { Flow.default_options with Flow.limits = classes } in
  Alcotest.(check (option string)) "classes spelled" (Some "alu:1,mul:1,div:1") (J.str_member "fus" j);
  Alcotest.(check (option int)) "integer fus" (Some 2)
    (J.int_member "fus" (Serve.Proto.options_to_json Flow.default_options));
  (* a served dse over every default point agrees with direct evaluation *)
  let req =
    J.Obj
      [
        ("cmd", J.Str "dse");
        ("workload", J.Str "diffeq");
        ("points", J.Arr (List.map (fun (_, o) -> Serve.Proto.options_to_json o) points));
      ]
  in
  let served =
    match Serve.Proto.request_of_json req with
    | Ok (Serve.Proto.Dse { points = decoded; _ }) ->
        Alcotest.(check bool) "request decodes every point" true
          (decoded = List.map snd points);
        let r = Serve.Server.handle (Serve.Server.create ()) req in
        Alcotest.(check string) "dse ok" "ok" (str_field "status" r);
        (match J.member "points" r with
        | Some (J.Arr ps) -> List.map (str_field "design_hash") ps
        | _ -> Alcotest.fail "no points")
    | Ok _ -> Alcotest.fail "not a dse request"
    | Error e -> Alcotest.fail e
  in
  let engine = Dse.create diffeq in
  let direct =
    List.map
      (fun (_, o) ->
        match Dse.eval_result engine o with
        | Ok d -> Dse.design_digest d
        | Error _ -> Alcotest.fail "direct evaluation failed")
      points
  in
  Alcotest.(check (list string)) "served design_hash = direct digest" direct served

(* decode ∘ encode = id over everything the wire can express *)
let wire_point =
  let open QCheck.Gen in
  let pick l = oneofl l in
  let module K = Flow.Knob in
  let scheduler =
    frequency [ (4, pick (K.values K.scheduler)); (1, map (fun k -> Flow.Force_directed k) (0 -- 20)) ]
  in
  let classes =
    let cap c = map (fun n -> (c, n)) (1 -- 4) in
    map
      (fun caps -> Hls_sched.Limits.Classes caps)
      (flatten_l (List.map cap Hls_cdfg.Op.[ C_alu; C_mul; C_div ]))
  in
  let limits =
    frequency
      [
        (1, return Hls_sched.Limits.Serial);
        (1, return Hls_sched.Limits.Unlimited);
        (2, map (fun n -> Hls_sched.Limits.Total n) (1 -- 8));
        (2, classes);
      ]
  in
  let gen =
    pick (List.map snd Hls_transform.Passes.named_pipelines) >>= fun passes ->
    bool >>= fun if_conversion ->
    scheduler >>= fun scheduler ->
    limits >>= fun limits ->
    pick (K.values K.allocator) >>= fun allocator ->
    pick (K.values K.encoding) >>= fun encoding ->
    bool >>= fun narrow ->
    pick [ 0; 3 ] >>= fun iterate ->
    return
      { Flow.default_options with
        Flow.passes; if_conversion; scheduler; limits; allocator; encoding; narrow; iterate }
  in
  QCheck.make gen ~print:(fun o -> J.to_string (Serve.Proto.options_to_json o))

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"options decode . encode = id" ~count:2000 wire_point (fun o ->
      (* through the text form too, as a frame carries it *)
      match J.parse (J.to_string (Serve.Proto.options_to_json o)) with
      | Ok j -> Serve.Proto.options_of_json j = Ok o
      | Error _ -> false)

let test_proto_bad_spec () =
  (match Serve.Proto.options_of_json (J.Obj [ ("passes", J.Str "standard+bogus") ]) with
  | Ok _ -> Alcotest.fail "accepted a bogus modifier"
  | Error _ -> ());
  match Serve.Proto.options_of_json (J.Obj [ ("passes", J.Str "cse,stregth") ]) with
  | Ok _ -> Alcotest.fail "accepted a misspelled pass"
  | Error e ->
      (* the typed find error surfaces its suggestion through the wire *)
      Alcotest.(check bool) "error suggests the pass" true (contains e "strength")

let test_proto_versioning () =
  let t = Serve.Server.create () in
  let r = Serve.Server.handle t (synth_req ()) in
  Alcotest.(check (option int)) "response advertises the protocol"
    (Some Serve.Proto.version) (J.int_member "proto" r);
  let ping proto = J.Obj [ ("cmd", J.Str "ping"); ("proto", J.of_int proto) ] in
  Alcotest.(check string) "current version accepted" "ok"
    (str_field "status" (Serve.Server.handle t (ping Serve.Proto.version)));
  Alcotest.(check string) "older version accepted" "ok"
    (str_field "status" (Serve.Server.handle t (ping 1)));
  Alcotest.(check string) "future version refused" "error"
    (str_field "status" (Serve.Server.handle t (ping (Serve.Proto.version + 1))))

let test_proto_synth_with_passes () =
  let t = Serve.Server.create () in
  let req =
    J.Obj
      [
        ("cmd", J.Str "synth");
        ("workload", J.Str "gcd");
        ("options", J.Obj [ ("passes", J.Str "extract") ]);
      ]
  in
  let r = Serve.Server.handle t req in
  Alcotest.(check string) "ok" "ok" (str_field "status" r);
  match Option.bind (J.member "design" r) (J.member "options") with
  | Some o ->
      Alcotest.(check (option string)) "spec echoed back" (Some "extract")
        (J.str_member "passes" o)
  | None -> Alcotest.fail "design options missing"

(* ---- robustness: torn frames, an unwritable cache ---- *)

(* Feed [bytes] to [serve_frames] through a pipe closed after them, and
   collect every reply frame. *)
let serve_bytes bytes =
  let t = Serve.Server.create () in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  ignore (Unix.write_substring in_w bytes 0 (String.length bytes));
  Unix.close in_w;
  Serve.Server.serve_frames t ~input:in_r ~output:out_w;
  Unix.close in_r;
  Unix.close out_w;
  let rec replies acc =
    match Serve.Proto.read_frame out_r with
    | Some (Ok payload) -> (
        match J.parse payload with
        | Ok j -> replies (j :: acc)
        | Error e -> Alcotest.fail ("unparsable reply: " ^ e))
    | Some (Error e) -> Alcotest.fail ("torn reply: " ^ e)
    | None -> List.rev acc
  in
  let rs = replies [] in
  Unix.close out_r;
  rs

let frame s = string_of_int (String.length s) ^ "\n" ^ s

let test_torn_frames () =
  let ping = frame {|{"cmd":"ping"}|} in
  let statuses bytes = List.map (str_field "status") (serve_bytes bytes) in
  Alcotest.(check (list string)) "cut in the header" [ "ok"; "error" ] (statuses (ping ^ "12"));
  Alcotest.(check (list string))
    "cut in the payload" [ "ok"; "error" ]
    (statuses (ping ^ "40\n{\"cmd\":\"synth\""));
  Alcotest.(check (list string)) "clean end" [ "ok" ] (statuses ping)

let test_unwritable_cache_dir () =
  (* a directory under a regular file cannot be created, even as root *)
  let file = fresh_dir "plainfile" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc "not a directory");
  let dir = Filename.concat file "cache" in
  let t =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with Serve.Server.cache_dir = Some dir }
      ()
  in
  let misses0 = Trace.counter "serve/disk_misses" in
  let reply = Serve.Server.handle t (synth_req ()) in
  Alcotest.(check string) "answers ok" "ok" (str_field "status" reply);
  Alcotest.(check int) "one disk miss" 1 (Trace.counter "serve/disk_misses" - misses0);
  Alcotest.(check (list string)) "stores nothing" [] (Disk_cache.entries ~dir);
  Alcotest.(check bool) "the file is untouched" false (Sys.is_directory file);
  Sys.remove file

(* ---- sockets: busy rejection and graceful stop ---- *)

let test_socket_busy_rejection () =
  let path = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlsc_busy_%d.sock" (Unix.getpid ())) in
  (* capacity-0 queue: every connection is refused with a typed busy *)
  let t =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with Serve.Server.max_queue = 0; workers = 1 }
      ()
  in
  let rejected0 = Trace.counter "serve/rejected" in
  let server = Domain.spawn (fun () -> Serve.Server.serve_unix t ~path) in
  let rec await_socket n =
    if n = 0 then Alcotest.fail "socket never appeared";
    if not (Sys.file_exists path) then (Unix.sleepf 0.02; await_socket (n - 1))
  in
  await_socket 100;
  let c = Serve.Server.Client.connect path in
  let reply =
    match Serve.Server.Client.request c (J.Obj [ ("cmd", J.Str "stats") ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Serve.Server.Client.close c;
  Alcotest.(check string) "typed busy response" "busy" (str_field "status" reply);
  Alcotest.(check bool) "rejection counted" true (Trace.counter "serve/rejected" > rejected0);
  Serve.Server.request_stop t;
  Domain.join server;
  Alcotest.(check bool) "socket unlinked on stop" false (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "disk-cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_cache_roundtrip;
          Alcotest.test_case "corruption is a miss" `Quick test_disk_cache_corruption_is_miss;
        ] );
      ( "dse-persist",
        [
          Alcotest.test_case "fresh engine hits disk" `Quick test_dse_disk_persistence;
          Alcotest.test_case "corrupt entry recomputes" `Quick test_dse_corrupt_entry_recomputes;
          Alcotest.test_case "raising eval does not wedge" `Quick
            test_dse_exception_does_not_wedge;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "bound and drain" `Quick test_bqueue_bound;
          Alcotest.test_case "zero capacity" `Quick test_bqueue_zero_capacity;
          Alcotest.test_case "close wakes takers" `Quick test_bqueue_close_wakes_takers;
        ] );
      ( "pool",
        [ Alcotest.test_case "usable after a raising map" `Quick test_pool_usable_after_raise ] );
      ( "proto",
        [
          Alcotest.test_case "passes codec round-trip" `Quick test_proto_passes_codec;
          Alcotest.test_case "legacy opt_level rejected" `Quick test_proto_opt_level_rejected;
          Alcotest.test_case "unknown key rejected" `Quick test_proto_unknown_key;
          Alcotest.test_case "fds slack on the wire" `Quick test_proto_fds_slack;
          Alcotest.test_case "cross points survive the wire" `Slow
            test_proto_cross_points_survive;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          Alcotest.test_case "bad spec rejected with suggestion" `Quick test_proto_bad_spec;
          Alcotest.test_case "versioning" `Quick test_proto_versioning;
          Alcotest.test_case "synth under a passes spec" `Quick test_proto_synth_with_passes;
        ] );
      ( "server",
        [
          Alcotest.test_case "synth and structured errors" `Quick test_handle_synth_and_errors;
          Alcotest.test_case "concurrent requests deterministic" `Quick
            test_handle_concurrent_deterministic;
          Alcotest.test_case "busy rejection over a socket" `Quick test_socket_busy_rejection;
          Alcotest.test_case "torn frames end the stream" `Quick test_torn_frames;
          Alcotest.test_case "unwritable cache directory" `Quick test_unwritable_cache_dir;
        ] );
    ]
