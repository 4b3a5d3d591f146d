(* Per-run bookkeeping shared by the workloads: request latencies,
   option points answered, the quality of returned designs, and failed
   operations. A request is one synth, one sweep or one serve request. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat_ms : float list;
  mutable busy_s : float;
  mutable points : int;
  mutable first_cycle : bool;
      (** quality is taken from the first full cycle only, so each
          distinct design counts once however often it repeats *)
  mutable areas : float list;
  mutable latencies_ns : float list;
  mutable shown : int;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    lat_ms = [];
    busy_s = 0.;
    points = 0;
    first_cycle = true;
    areas = [];
    latencies_ns = [];
    shown = 0;
  }

let fail m msg =
  m.failed <- m.failed + 1;
  if m.shown < 10 then begin
    m.shown <- m.shown + 1;
    Printf.eprintf "perfbench: request %d failed: %s\n%!" m.attempted msg
  end

(* Issue one request: [f] is timed (as the [request] span when
   tracing) and its library counters are counted; [check] then runs on
   the result untimed. An exception from either, or an [Error] from
   [check], counts the request as failed instead of ending the run. *)
let request m ?(points = 1) ?(attrs = []) f check =
  m.attempted <- m.attempted + 1;
  Spans.rid := m.attempted;
  let t0 = Unix.gettimeofday () in
  match Spans.counted (fun () -> Spans.with_ ~attrs "request" f) with
  | exception e -> fail m (Printexc.to_string e)
  | v -> (
      let dt = Unix.gettimeofday () -. t0 in
      m.lat_ms <- (dt *. 1000.) :: m.lat_ms;
      m.busy_s <- m.busy_s +. dt;
      m.points <- m.points + points;
      match check v with
      | Ok () -> ()
      | Error msg -> fail m msg
      | exception e -> fail m (Printexc.to_string e))

let quality m ~area ~latency_ns =
  if m.first_cycle then begin
    m.areas <- float_of_int area :: m.areas;
    m.latencies_ns <- latency_ns :: m.latencies_ns
  end

let all_ok results =
  match List.find_opt Result.is_error results with
  | Some (Error e) -> Error e
  | _ -> Ok ()

(* ---- statistics ---- *)

(* Linear interpolation between closest ranks. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let h = p *. float_of_int (n - 1) in
      let lo = int_of_float (floor h) in
      let hi = min (n - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

let geomean = function
  | [] -> 0.
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())
