(* Render the Hls_obs.Trace sink for people and machines: a text
   report, a counters JSON object, and the Chrome trace_event format
   (chrome://tracing, Perfetto). Spans become "X" (complete) events —
   pid is the process, tid the recording domain, ts/dur microseconds
   since the trace epoch — and each counter's final total becomes one
   "C" event stamped at the end of the trace. *)

module J = Hls_util.Json
module T = Hls_obs.Trace

let span_json (s : T.span) =
  let args =
    (match s.T.sp_parent with Some p -> [ ("parent", J.Str p) ] | None -> [])
    @ List.map (fun (k, v) -> (k, J.Str v)) s.T.sp_args
  in
  J.Obj
    [
      ("name", J.Str s.T.sp_name);
      ("cat", J.Str "hls");
      ("ph", J.Str "X");
      ("ts", J.Num (1e6 *. s.T.sp_start));
      ("dur", J.Num (1e6 *. s.T.sp_dur));
      ("pid", J.Num 1.0);
      ("tid", J.Num (float_of_int s.T.sp_domain));
      ("args", J.Obj args);
    ]

let counter_event ~ts (name, value) =
  J.Obj
    [
      ("name", J.Str name);
      ("cat", J.Str "hls");
      ("ph", J.Str "C");
      ("ts", J.Num ts);
      ("pid", J.Num 1.0);
      ("args", J.Obj [ (name, J.Num (float_of_int value)) ]);
    ]

let counters_json () =
  J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) (T.counters ()))

let counters_with_prefix prefix =
  List.filter (fun (k, _) -> String.starts_with ~prefix k) (T.counters ())

let counters_json_with_prefix prefix =
  J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) (counters_with_prefix prefix))

let chrome_trace () =
  let spans = T.spans () in
  let end_ts =
    List.fold_left (fun acc (s : T.span) -> Float.max acc (s.T.sp_start +. s.T.sp_dur)) 0.0 spans
  in
  let events =
    List.map span_json spans
    @ List.map (counter_event ~ts:(1e6 *. end_ts)) (T.counters ())
  in
  J.Obj
    [
      ("traceEvents", J.Arr events);
      ("displayTimeUnit", J.Str "ms");
      ("counters", counters_json ());
      ("droppedEvents", J.Num (float_of_int (T.dropped ())));
    ]

let render_counters () =
  let cs = T.counters () in
  if cs = [] then "no counters recorded\n"
  else
    let width = List.fold_left (fun w (k, _) -> max w (String.length k)) 0 cs in
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%-*s %10d\n" width k v) cs)

let pp_durations ppf durations =
  List.iter
    (fun (stage, seconds, calls) ->
      Format.fprintf ppf "%-10s %8.3f ms  (%d calls)@." stage (1e3 *. seconds) calls)
    durations

let render () =
  let stages = Format.asprintf "%a" pp_durations (T.durations_snapshot ()) in
  let spans = T.spans () in
  Printf.sprintf "stage timings:\n%s\ncounters:\n%s\nspans captured: %d (dropped %d)\n"
    stages (render_counters ()) (List.length spans) (T.dropped ())

(* Shape check for an emitted Chrome trace: what `hlsc trace
   --validate` and the @trace-smoke alias run over the file. *)
let validate_chrome json =
  let ( let* ) = Result.bind in
  let* events =
    match J.member "traceEvents" json with
    | Some (J.Arr es) -> Ok es
    | _ -> Error "missing traceEvents array"
  in
  let* () = if events = [] then Error "empty traceEvents" else Ok () in
  let field name ev = J.member name ev in
  let rec check i = function
    | [] -> Ok ()
    | ev :: rest ->
        let bad what = Error (Printf.sprintf "event %d: %s" i what) in
        let* ph =
          match field "ph" ev with
          | Some (J.Str ph) -> Ok ph
          | _ -> bad "missing ph"
        in
        let* () =
          match field "name" ev with
          | Some (J.Str _) -> Ok ()
          | _ -> bad "missing name"
        in
        let* () =
          match (field "ts" ev, field "pid" ev) with
          | Some (J.Num _), Some (J.Num _) -> Ok ()
          | _ -> bad "missing ts/pid"
        in
        let* () =
          match ph with
          | "X" -> (
              match (field "dur" ev, field "tid" ev) with
              | Some (J.Num _), Some (J.Num _) -> Ok ()
              | _ -> bad "X event missing dur/tid")
          | "C" -> (
              match field "args" ev with
              | Some (J.Obj _) -> Ok ()
              | _ -> bad "C event missing args")
          | _ -> bad (Printf.sprintf "unexpected phase %S" ph)
        in
        check (i + 1) rest
  in
  check 0 events

let pipeline_stages =
  [ "frontend"; "midend"; "schedule"; "allocate"; "bind"; "control"; "estimate" ]

let covered_stages json =
  match J.member "traceEvents" json with
  | Some (J.Arr es) ->
      List.filter
        (fun stage ->
          List.exists
            (fun ev ->
              J.member "name" ev = Some (J.Str stage)
              && J.member "ph" ev = Some (J.Str "X"))
            es)
        pipeline_stages
  | _ -> []
