(* The hlsc serve daemon.

   One server owns a registry of Dse engines keyed by source digest, so
   repeated requests against the same source share every layer of the
   in-memory staged cache, and — when cache_dir is set — the persistent
   disk layer underneath it: a freshly started daemon answers a request
   it has never seen from the store a previous daemon wrote.

   Concurrency shape: a fixed crew of handler domains drains a bounded
   connection queue fed by the acceptor. Fixed because OCaml domains
   are heavyweight and capped (~128); bounded because admission control
   must be explicit — when the queue is full the acceptor answers a
   typed `busy` frame immediately instead of letting latency hide in an
   unbounded backlog. Within a request, parallelism comes from
   Hls_util.Pool.map via the engine's `jobs`, exactly as in the CLI: each
   map spawns its own domains, and maps from several handlers at once
   share one budget of spare cores.

   Shutdown is graceful by construction: `stop` closes the queue, which
   refuses new connections while the handlers finish everything already
   accepted, then joins the handler domains. A `shutdown` request only
   raises the stop flag; the acceptor loop observes it within its
   select timeout. *)

module J = Hls_util.Json
module Flow = Hls_core.Flow
module Dse = Hls_core.Dse
module Trace = Hls_obs.Trace

type config = {
  workers : int;  (** handler domains draining the connection queue *)
  max_queue : int;  (** accepted-but-unhandled connection bound *)
  jobs : int;  (** per-request Dse worker jobs *)
  verify : bool;  (** full design lint on every evaluated point *)
  cache_dir : string option;  (** persistent design cache location *)
}

let default_config =
  { workers = 2; max_queue = 16; jobs = 1; verify = false; cache_dir = None }

type t = {
  config : config;
  engines : (string, Dse.t) Hashtbl.t;
  engines_lock : Mutex.t;
  queue : Unix.file_descr Bqueue.t;
  stop_flag : bool Atomic.t;
  inflight : int Atomic.t;
}

let create ?(config = default_config) () =
  if config.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if config.max_queue < 0 then invalid_arg "Server.create: negative max_queue";
  {
    config;
    engines = Hashtbl.create 7;
    engines_lock = Mutex.create ();
    queue = Bqueue.create ~capacity:config.max_queue;
    stop_flag = Atomic.make false;
    inflight = Atomic.make 0;
  }

let stop_requested t = Atomic.get t.stop_flag
let request_stop t = Atomic.set t.stop_flag true

(* One engine per distinct source text; the digest key means inline
   "source" text and the equivalent named "workload" share an engine. *)
let engine_for t source =
  let key = Digest.to_hex (Digest.string source) in
  Hls_obs.Sync.with_lock t.engines_lock (fun () ->
      match Hashtbl.find_opt t.engines key with
      | Some e -> e
      | None ->
          let config =
            {
              Dse.jobs = t.config.jobs;
              verify = t.config.verify;
              memoize = true;
              cache_dir = t.config.cache_dir;
            }
          in
          let e = Dse.create ~config source in
          Hashtbl.add t.engines key e;
          e)

let engine_count t =
  Hls_obs.Sync.with_lock t.engines_lock (fun () -> Hashtbl.length t.engines)

(* ---- the synchronous request core ---- *)

let eval_point t ~source options =
  let engine = engine_for t source in
  match Dse.eval_result engine options with
  | Ok d -> ("ok", [ ("design", Proto.design_summary d) ])
  | Error ds ->
      ( "error",
        [
          ("error", J.Str "design failed verification");
          ("diagnostics", Proto.diagnostics_json ds);
        ] )

let dispatch t ~span req =
  match req with
  | Proto.Synth { source; options; _ } -> (
      match eval_point t ~source options with
      | "ok", fields -> Proto.ok ~span fields
      | _, fields -> Proto.response ~status:"error" ~span fields)
  | Proto.Dse { source; points; _ } ->
      let engine = engine_for t source in
      let results = Dse.run_result engine points in
      let point_json = function
        | Ok d -> Proto.design_summary d
        | Error ds ->
            J.Obj
              [
                ("error", J.Str "design failed verification");
                ("diagnostics", Proto.diagnostics_json ds);
              ]
      in
      Proto.ok ~span
        [
          ("points", J.Arr (List.map point_json results));
          ("counters", Hls_core.Metrics.counters_json_with_prefix "dse/");
        ]
  | Proto.Lint { name; source; options; floor } -> (
      let engine = engine_for t source in
      match Dse.eval_result engine options with
      | Ok d ->
          let ds = Hls_core.Lint.run ~floor d in
          Proto.ok ~span
            [
              ("name", J.Str name);
              ("errors", J.Bool (Hls_core.Lint.has_errors ds));
              ("diagnostics", Proto.diagnostics_json ds);
            ]
      | Error ds ->
          Proto.response ~status:"error" ~span
            [
              ("error", J.Str "design failed verification");
              ("diagnostics", Proto.diagnostics_json ds);
            ])
  | Proto.Ping { delay_ms } ->
      if delay_ms > 0 then Unix.sleepf (float_of_int delay_ms /. 1000.);
      Proto.ok ~span [ ("pong", J.Bool true) ]
  | Proto.Stats ->
      Proto.ok ~span
        [
          ("engines", J.of_int (engine_count t));
          ("serve", Hls_core.Metrics.counters_json_with_prefix "serve/");
          ("dse", Hls_core.Metrics.counters_json_with_prefix "dse/");
        ]
  | Proto.Shutdown ->
      request_stop t;
      Proto.ok ~span [ ("stopping", J.Bool true) ]

(* Handle one already-parsed request body. Every failure mode — bad
   JSON shape, unknown workload, frontend errors in the source, even a
   raising pipeline bug — becomes a structured per-request error
   response; nothing a client sends may take the daemon down. *)
let handle t json =
  let span = Trace.fresh_id () in
  Trace.incr "serve/requests";
  let n = Atomic.fetch_and_add t.inflight 1 + 1 in
  Trace.record_max "serve/inflight_peak" n;
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-1)))
    (fun () ->
      match Proto.request_of_json json with
      | Error e -> Proto.error ~span e
      | Ok req -> (
          let cmd =
            match req with
            | Proto.Synth _ -> "synth"
            | Proto.Dse _ -> "dse"
            | Proto.Lint _ -> "lint"
            | Proto.Ping _ -> "ping"
            | Proto.Stats -> "stats"
            | Proto.Shutdown -> "shutdown"
          in
          Trace.with_span ~args:[ ("cmd", cmd); ("span_id", string_of_int span) ]
            "serve/request"
            (fun () ->
              try dispatch t ~span req with
              | Hls_lang.Ast.Frontend_error (_, msg) ->
                  Proto.error ~span (Printf.sprintf "frontend error: %s" msg)
              | Invalid_argument msg | Failure msg ->
                  Proto.error ~span (Printf.sprintf "synthesis failed: %s" msg)
              | Sys_error msg -> Proto.error ~span msg)))

let handle_text t payload =
  match J.parse payload with
  | Error e -> Proto.error ~span:(Trace.fresh_id ()) (Printf.sprintf "bad JSON: %s" e)
  | Ok json -> handle t json

(* ---- connection plumbing ---- *)

(* Serve one accepted connection to completion: a client may pipeline
   any number of frames; the connection ends at a clean frame boundary
   or on the first torn frame. *)
let serve_connection t fd =
  let rec loop () =
    match Proto.read_frame fd with
    | None -> ()
    | Some (Error e) ->
        (try Proto.write_frame fd (J.to_string (Proto.error ~span:(Trace.fresh_id ()) e))
         with Proto.Closed | Unix.Unix_error _ -> ())
    | Some (Ok payload) ->
        let reply = handle_text t payload in
        let continue =
          try
            Proto.write_frame fd (J.to_string reply);
            true
          with Proto.Closed | Unix.Unix_error _ -> false
        in
        if continue then loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

let handler_loop t =
  let rec loop () =
    match Bqueue.take t.queue with
    | None -> ()
    | Some fd ->
        (try serve_connection t fd with _ -> ());
        loop ()
  in
  loop ()

(* Refuse at the door: the client gets a typed busy frame immediately
   rather than an unbounded wait. *)
let reject fd ~queue ~depth =
  Trace.incr "serve/rejected";
  (try Proto.write_frame fd (J.to_string (Proto.busy ~span:(Trace.fresh_id ()) ~queue ~depth))
   with Proto.Closed | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* A peer that hangs up mid-write must surface as Proto.Closed on that
   connection, not a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ()

let serve_unix t ~path =
  ignore_sigpipe ();
  (* the socket appears at [path] only once it listens: a client that
     waits for the file and connects in the gap between bind and listen
     would be refused *)
  let staging = path ^ ".new" in
  (try Unix.unlink staging with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX staging);
  Unix.listen listen_fd 64;
  Unix.rename staging path;
  let handlers =
    List.init t.config.workers (fun _ -> Domain.spawn (fun () -> handler_loop t))
  in
  let rec accept_loop () =
    if stop_requested t then ()
    else begin
      (* select with a timeout so the stop flag is observed even when
         no client ever connects *)
      (match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listen_fd with
          | fd, _ ->
              if not (Bqueue.offer t.queue fd) then
                reject fd ~queue:(Bqueue.length t.queue) ~depth:t.config.max_queue
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Bqueue.close t.queue;
      List.iter Domain.join handlers)
    accept_loop

(* Single-client mode: frames over a plain fd pair (stdin/stdout under
   `hlsc serve --stdio`). No queue, no handler crew — the caller is the
   only client, so requests are served inline until a shutdown request,
   a clean EOF, or a torn frame. *)
let serve_frames t ~input ~output =
  ignore_sigpipe ();
  let rec loop () =
    if stop_requested t then ()
    else
      match Proto.read_frame input with
      | None -> ()
      | Some (Error e) -> (
          try Proto.write_frame output (J.to_string (Proto.error ~span:(Trace.fresh_id ()) e))
          with Proto.Closed | Unix.Unix_error _ -> ())
      | Some (Ok payload) -> (
          let reply = handle_text t payload in
          match Proto.write_frame output (J.to_string reply) with
          | () -> loop ()
          | exception (Proto.Closed | Unix.Unix_error _) -> ())
  in
  loop ()

(* ---- client helpers ---- *)

module Client = struct
  type conn = Unix.file_descr

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd

  let request fd json =
    (* a rejected connection may already be half-closed: the busy frame
       is still readable after the server's close, so a failed write
       must not abort the exchange *)
    (try Proto.write_frame fd (J.to_string json)
     with Proto.Closed | Unix.Unix_error _ -> ());
    match Proto.read_frame fd with
    | Some (Ok payload) -> J.parse payload
    | Some (Error e) -> Error (Printf.sprintf "torn response frame: %s" e)
    | None -> Error "connection closed before response"

  let close fd = try Unix.close fd with Unix.Unix_error _ -> ()
end
