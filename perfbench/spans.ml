(* Benchmark-owned tracing: spans the benchmark records around its own
   calls into each layer's public functions, plus the layer work
   counters read from Hls_obs.Trace. Everything is kept in memory and
   written out once, when the run ends.

   A span is (id, name, start, end, parent, request id). A layer's self
   time is its spans' durations minus the part their child spans cover.
   Some public calls run several pipeline stages behind one call
   (Dse.eval_cheap, Explore.sweep_pruned, Server.handle_text); around
   those, the library's always-on per-stage duration accumulators are
   read before and after, and each stage's share becomes a synthetic
   child span, so the stage's time is charged to its own layer and not
   to the caller's self time.

   Off (the untraced run), [with_] is a direct call. *)

module Trace = Hls_obs.Trace

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = top level *)
  rid : int;  (** request id; 0 outside any request *)
  t0 : float;
  t1 : float;
  mw : float;  (** minor words allocated, children included *)
  attrs : (string * string) list;
  synthetic : bool;  (** derived from the library's stage accumulators *)
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let rid = ref 0

(* Work counted inside counted regions only: library counter deltas
   and the benchmark's own notes. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 64
let maxima : (string, int) Hashtbl.t = Hashtbl.create 8
let counting = ref false

let reset () =
  recorded := [];
  stack := [];
  Hashtbl.reset counts;
  Hashtbl.reset maxima

let fresh () =
  incr next_id;
  !next_id

(* The library's leaf pipeline stages and the layer each one belongs
   to. Only leaves: their accumulators never nest inside each other. *)
let stage_layer = function
  | "frontend" -> Some "lang.frontend"
  | "midend" -> Some "transform.midend"
  | "schedule" -> Some "sched.schedule"
  | "allocate" -> Some "alloc.allocate"
  | "bind" -> Some "rtl.datapath"
  | "control" -> Some "ctrl.synth"
  | "estimate" -> Some "rtl.estimate"
  | _ -> None

let stage_totals () =
  List.filter_map
    (fun (stage, secs, _) ->
      match stage_layer stage with Some l -> Some (l, secs) | None -> None)
    (Trace.durations_snapshot ())

let with_ ?(attrs = []) ?(opaque = false) name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let before = if opaque then stage_totals () else [] in
    let mw0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let mw = Gc.minor_words () -. mw0 in
      stack := List.tl !stack;
      recorded :=
        { id; name; parent; rid = !rid; t0; t1; mw; attrs; synthetic = false } :: !recorded;
      if opaque then begin
        let cursor = ref t0 in
        List.iter
          (fun (layer, secs) ->
            let prev = Option.value ~default:0. (List.assoc_opt layer before) in
            let d = secs -. prev in
            if d > 0. then begin
              let child_attrs = if layer = "sched.schedule" then attrs else [] in
              recorded :=
                {
                  id = fresh ();
                  name = layer;
                  parent = id;
                  rid = !rid;
                  t0 = !cursor;
                  t1 = !cursor +. d;
                  mw = 0.;
                  attrs = child_attrs;
                  synthetic = true;
                }
                :: !recorded;
              cursor := !cursor +. d
            end)
          (stage_totals ())
      end
    in
    Fun.protect ~finally:finish f
  end

let add name v =
  if !enabled then
    Hashtbl.replace counts name (v + Option.value ~default:0 (Hashtbl.find_opt counts name))

let record_max name v =
  if !enabled then
    match Hashtbl.find_opt maxima name with
    | Some m when m >= v -> ()
    | _ -> Hashtbl.replace maxima name v

(* Run [f] as a counted region: the library counters it moves are added
   to [counts]. Work outside counted regions — reference evaluations
   made only to check an answer — never reaches the per-layer figures.
   Regions do not nest; an inner call just runs. *)
let counted f =
  if (not !enabled) || !counting then f ()
  else begin
    counting := true;
    let c0 = Trace.counters () in
    Fun.protect
      ~finally:(fun () ->
        counting := false;
        List.iter
          (fun (name, v) ->
            let d = v - Option.value ~default:0 (List.assoc_opt name c0) in
            if d <> 0 then add name d)
          (Trace.counters ()))
      f
  end

(* ---- folding spans into per-layer figures ---- *)

let dur s = s.t1 -. s.t0

(* [(layer, self seconds, self minor words)] summed per span name, plus
   [sched.<scheduler>] groups for schedule spans carrying a scheduler
   attribute. *)
let self_times () =
  let spans = !recorded in
  let child_t = Hashtbl.create 256 and child_w = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then begin
        let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.parent) in
        Hashtbl.replace child_t s.parent (get child_t +. dur s);
        Hashtbl.replace child_w s.parent (get child_w +. s.mw)
      end)
    spans;
  let acc = Hashtbl.create 32 in
  let bump name t w =
    let t0, w0 = Option.value ~default:(0., 0.) (Hashtbl.find_opt acc name) in
    Hashtbl.replace acc name (t0 +. t, w0 +. w)
  in
  List.iter
    (fun s ->
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl s.id) in
      let t = dur s -. get child_t and w = s.mw -. get child_w in
      bump s.name t w;
      match (s.name, List.assoc_opt "scheduler" s.attrs) with
      | "sched.schedule", Some sch -> bump ("sched." ^ sch) t w
      | _ -> ())
    spans;
  acc

(* Durations of the spans called [name] whose [class] attribute is
   [cls]. *)
let durations name ~cls =
  List.filter_map
    (fun s ->
      if s.name = name && List.assoc_opt "class" s.attrs = Some cls then Some (dur s) else None)
    !recorded

let n_spans () = List.length !recorded

(* ---- writing out ---- *)

(* Write [spans] (as [recorded] held them, newest first) as a JSON
   array, oldest first. *)
let write spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"name\":%S,\"parent\":%d,\"request\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"minor_words\":%.0f,\"synthetic\":%b%s}\n"
            (if i = 0 then "" else ",")
            s.id s.name s.parent s.rid
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. base) *. 1e6)
            s.mw s.synthetic
            (String.concat ""
               (List.map (fun (k, v) -> Printf.sprintf ",%S:%S" k v) s.attrs)))
        (List.rev spans);
      output_string oc "]\n")
