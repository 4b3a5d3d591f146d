(* Wire protocol of `hlsc serve`.

   Framing is length-prefixed JSON: a decimal byte count, one '\n',
   then exactly that many payload bytes. The prefix is what lets a
   client (or the daemon) read a complete message off a stream socket
   without guessing at JSON boundaries, and a torn or oversized frame
   is detected before any parsing happens.

   Requests are objects with a "cmd" field — synth | dse | lint |
   ping | stats | shutdown — a source ("source" inline text or
   "workload" built-in name) where one is needed, and an "options"
   object with one field per exposed option of the table in Flow.Knob,
   spelled exactly as on the CLI (passes, if_convert, scheduler, fus,
   allocator, encoding, narrow, iterate), so anything expressible as
   `hlsc synth` flags is expressible as a serve request. An unknown
   option key is an error that lists the known ones. Responses carry
   "status" ok | busy | error plus a per-request trace span id and the
   protocol version under "proto".

   Versioning: protocol 2 spells the optimization pipeline as the
   "passes" spec string. A client may send "proto": N to assert the
   version it speaks, and the daemon rejects requests from the future
   rather than silently dropping fields it does not know.

   I/O here is over raw Unix file descriptors, not channels: a channel
   pair wrapping one socket fd would double-close it (and possibly a
   reused successor) on finalization. *)

module J = Hls_util.Json
module Flow = Hls_core.Flow

let version = 2

(* ---- framing ---- *)

let max_frame = 16 * 1024 * 1024

exception Closed

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Closed
    in
    write_all fd s (off + n) (len - n)
  end

let write_frame fd payload =
  let header = string_of_int (String.length payload) ^ "\n" in
  write_all fd header 0 (String.length header);
  write_all fd payload 0 (String.length payload)

(* One byte at a time is fine: headers are a handful of bytes and the
   payload below is read in bulk. *)
(* a connection reset mid-read is the same as the peer hanging up *)
let read_fd fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0

let read_header fd =
  let buf = Bytes.create 1 in
  let rec go acc =
    if List.length acc > 20 then Error "oversized frame header"
    else
      match read_fd fd buf 0 1 with
      | 0 -> if acc = [] then Error "closed" else Error "eof inside frame header"
      | _ ->
          let c = Bytes.get buf 0 in
          if c = '\n' then
            let digits = String.init (List.length acc) (List.nth (List.rev acc)) in
            match int_of_string_opt digits with
            | Some n when n >= 0 && n <= max_frame -> Ok n
            | Some n -> Error (Printf.sprintf "frame length %d out of bounds" n)
            | None -> Error (Printf.sprintf "malformed frame header %S" digits)
          else go (c :: acc)
  in
  go []

let read_exactly fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Ok (Bytes.to_string buf)
    else
      match read_fd fd buf off (n - off) with
      | 0 -> Error "eof inside frame payload"
      | k -> go (off + k)
  in
  go 0

let read_frame fd =
  match read_header fd with
  | Error "closed" -> None
  | Error e -> Some (Error e)
  | Ok n -> (
      match read_exactly fd n with
      | Ok payload -> Some (Ok payload)
      | Error e -> Some (Error e))

(* ---- options: one field per exposed Flow.Knob ---- *)

module K = Flow.Knob

let exposed = List.filter (fun (K.Any k) -> k.K.exposed) K.all

let decode (type a) (k : a K.t) json o =
  let bad what = Error (Printf.sprintf "option %S expects %s" k.K.key what) in
  let set r = Result.map (fun v -> k.K.set v o) r in
  match (k.K.kind, json) with
  | K.Flag, J.Bool b -> set (Ok b)
  | K.Flag, _ -> bad "a boolean"
  | K.Int, _ -> (match J.to_int json with Some n -> set (Ok n) | None -> bad "an integer")
  | K.Words w, J.Str s -> set (w.K.parse s)
  | K.Words w, _ -> (
      (* integer words ([fus]) travel as JSON numbers *)
      match J.to_int json with
      | Some n -> set (w.K.parse (string_of_int n))
      | None -> bad "a string")

let encode (type a) (k : a K.t) o =
  let v = k.K.get o in
  match k.K.kind with
  | K.Flag -> J.Bool v
  | K.Int -> J.of_int v
  | K.Words w -> (
      let s = w.K.print v in
      match int_of_string_opt s with Some n -> J.of_int n | None -> J.Str s)

let options_of_json json =
  match json with
  | J.Obj fields ->
      List.fold_left
        (fun acc (key, v) ->
          Result.bind acc (fun o ->
              match List.find_opt (fun (K.Any k) -> k.K.key = key) exposed with
              | Some (K.Any k) -> decode k v o
              | None ->
                  Error
                    (Printf.sprintf "unknown option %S (known options: %s)" key
                       (String.concat ", " (List.map (fun (K.Any k) -> k.K.key) exposed)))))
        (Ok Flow.default_options) fields
  | _ -> Error "\"options\" must be an object"

let options_to_json o = J.Obj (List.map (fun (K.Any k) -> (k.K.key, encode k o)) exposed)

(* ---- requests ---- *)

type request =
  | Synth of { name : string; source : string; options : Flow.options }
  | Dse of { name : string; source : string; points : Flow.options list }
  | Lint of {
      name : string;
      source : string;
      options : Flow.options;
      floor : Hls_analysis.Diagnostic.severity;
    }
  | Ping of { delay_ms : int }
  | Stats
  | Shutdown

let source_of_json json =
  match (J.str_member "source" json, J.str_member "workload" json) with
  | Some src, None -> Ok ("<request>", src)
  | None, Some name -> (
      match List.assoc_opt name Hls_core.Workloads.all with
      | Some src -> Ok (name, src)
      | None ->
          Error
            (Printf.sprintf "unknown workload %S (try: %s)" name
               (String.concat ", " (List.map fst Hls_core.Workloads.all))))
  | Some _, Some _ -> Error "give either \"source\" or \"workload\", not both"
  | None, None -> Error "request needs a \"source\" text or a \"workload\" name"

let request_of_json json =
  let ( let* ) = Result.bind in
  let options_field () =
    match J.member "options" json with
    | None -> Ok Flow.default_options
    | Some o -> options_of_json o
  in
  let* () =
    match J.int_member "proto" json with
    | Some v when v > version ->
        Error
          (Printf.sprintf "request speaks protocol %d, this daemon speaks %d" v version)
    | _ -> Ok ()
  in
  match J.str_member "cmd" json with
  | None -> Error "request needs a \"cmd\" field"
  | Some "synth" ->
      let* name, source = source_of_json json in
      let* options = options_field () in
      Ok (Synth { name; source; options })
  | Some "dse" ->
      let* name, source = source_of_json json in
      let* points =
        match J.member "points" json with
        | None ->
            let* o = options_field () in
            Ok [ o ]
        | Some (J.Arr ps) ->
            if ps = [] then Error "\"points\" must be non-empty"
            else
              List.fold_left
                (fun acc p ->
                  let* acc = acc in
                  let* o = options_of_json p in
                  Ok (o :: acc))
                (Ok []) ps
              |> Result.map List.rev
        | Some _ -> Error "\"points\" must be an array of option objects"
      in
      Ok (Dse { name; source; points })
  | Some "lint" ->
      let* name, source = source_of_json json in
      let* options = options_field () in
      let* floor =
        match J.str_member "floor" json with
        | None -> Ok Hls_analysis.Diagnostic.Info
        | Some s -> (
            match Hls_analysis.Diagnostic.severity_of_string s with
            | Some sev -> Ok sev
            | None -> Error (Printf.sprintf "unknown severity floor %S" s))
      in
      Ok (Lint { name; source; options; floor })
  | Some "ping" ->
      let delay_ms = Option.value ~default:0 (J.int_member "delay_ms" json) in
      if delay_ms < 0 || delay_ms > 60_000 then Error "delay_ms out of range"
      else Ok (Ping { delay_ms })
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some c -> Error (Printf.sprintf "unknown cmd %S" c)

(* ---- responses ---- *)

let response ~status ~span fields =
  J.Obj
    (("status", J.Str status) :: ("proto", J.of_int version) :: ("span", J.of_int span)
    :: fields)

let ok ~span fields = response ~status:"ok" ~span fields

let error ~span msg = response ~status:"error" ~span [ ("error", J.Str msg) ]

let busy ~span ~queue ~depth =
  response ~status:"busy" ~span
    [
      ("error", J.Str "server queue full, retry later");
      ("queue", J.of_int queue);
      ("depth", J.of_int depth);
    ]

let design_summary (d : Flow.design) =
  let e = d.Flow.estimate in
  J.Obj
    [
      ("design_hash", J.Str (Hls_core.Dse.design_digest d));
      ("area", J.of_int e.Hls_rtl.Estimate.total_area);
      ("cycle_ns", J.Num e.Hls_rtl.Estimate.cycle_ns);
      ("steps", J.of_int e.Hls_rtl.Estimate.compute_steps);
      ("latency_ns", J.Num e.Hls_rtl.Estimate.latency_ns);
      ("fus", J.of_int (List.length d.Flow.fu.Hls_alloc.Fu_alloc.instances));
      ("options", options_to_json d.Flow.options);
    ]

let diagnostics_json ds = J.Arr (List.map Hls_analysis.Diagnostic.to_json ds)
