(* Structured tracing and metrics for the synthesis pipeline.

   Three kinds of state, all global and guarded by one mutex so worker
   domains report into a single view:

   - duration accumulators: per-stage wall-clock totals, always on;
   - counters: named monotonic integers (cache hits, ops scheduled,
     clique merges, ...), always on. Each name owns one atomic cell,
     registered once; a bump through a {!handle} is one atomic add, and
     a bump by name adds a locked table lookup;
   - the span ring: completed spans with attributes, parent links and
     the owning domain, captured only while [enabled] — this is what
     the Chrome trace_event export renders.

   The ring has fixed capacity and overwrites oldest-first; overwrites
   are counted so an export can say how much history it lost. Span
   nesting is tracked per domain (domain-local stacks), so spans from
   concurrent Pool.map lanes never corrupt each other's parent links.

   Every critical section goes through Sync.with_lock: the sink is
   shared by long-lived servers, where a raise while holding the lock
   (a failed allocation, an assert in a snapshot) must not wedge every
   future counter bump. *)

type span = {
  sp_name : string;
  sp_args : (string * string) list;
  sp_parent : string option;  (** innermost enclosing span on the same domain *)
  sp_domain : int;
  sp_start : float;  (** seconds since the trace epoch *)
  sp_dur : float;
}

let lock = Mutex.create ()
let locked f = Sync.with_lock lock f

(* ---- always-on stage duration accumulators ---- *)

let durations : (string, float * int) Hashtbl.t = Hashtbl.create 16
let duration_order : string list ref = ref []

let record_duration_locked stage seconds =
  match Hashtbl.find_opt durations stage with
  | Some (s, c) -> Hashtbl.replace durations stage (s +. seconds, c + 1)
  | None ->
      Hashtbl.add durations stage (seconds, 1);
      duration_order := stage :: !duration_order

let record_duration stage seconds =
  locked (fun () -> record_duration_locked stage seconds)

let reset_durations () =
  locked (fun () ->
      Hashtbl.reset durations;
      duration_order := [])

let durations_snapshot () =
  locked (fun () ->
      List.rev_map
        (fun stage ->
          let seconds, calls = Hashtbl.find durations stage in
          (stage, seconds, calls))
        !duration_order)

(* ---- counters ---- *)

(* A cell stays registered for the life of the process; [touched] says
   whether it was bumped since the last reset, i.e. whether it is
   listed. *)
type handle = { value : int Atomic.t; touched : bool Atomic.t }

let counters_tbl : (string, handle) Hashtbl.t = Hashtbl.create 32

let handle_locked name =
  match Hashtbl.find_opt counters_tbl name with
  | Some h -> h
  | None ->
      let h = { value = Atomic.make 0; touched = Atomic.make false } in
      Hashtbl.add counters_tbl name h;
      h

let handle name = locked (fun () -> handle_locked name)

let touch h = if not (Atomic.get h.touched) then Atomic.set h.touched true

let add_to h v =
  ignore (Atomic.fetch_and_add h.value v);
  touch h

let bump h = add_to h 1
let add name v = add_to (handle name) v
let incr name = add name 1

(* under the lock, so two domains recording at once keep the larger *)
let record_max name v =
  locked (fun () ->
      let h = handle_locked name in
      if v > Atomic.get h.value || not (Atomic.get h.touched) then Atomic.set h.value v;
      Atomic.set h.touched true)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some h when Atomic.get h.touched -> Atomic.get h.value
      | _ -> 0)

let counters () =
  let l =
    locked (fun () ->
        Hashtbl.fold
          (fun k h acc -> if Atomic.get h.touched then (k, Atomic.get h.value) :: acc else acc)
          counters_tbl [])
  in
  List.sort compare l

(* ---- ids ---- *)

let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* ---- span ring ---- *)

let enabled_flag = ref false
let default_capacity = 8192
let ring : span option array ref = ref (Array.make default_capacity None)
let ring_next = ref 0 (* total spans ever pushed; write slot is [!ring_next mod cap] *)
let epoch = ref (Unix.gettimeofday ())

let enable ?(capacity = default_capacity) () =
  locked (fun () ->
      if capacity < 1 then invalid_arg "Trace.enable: capacity must be positive";
      if Array.length !ring <> capacity then ring := Array.make capacity None;
      enabled_flag := true)

let disable () = locked (fun () -> enabled_flag := false)
let enabled () = !enabled_flag

let reset () =
  locked (fun () ->
      Hashtbl.reset durations;
      duration_order := [];
      Hashtbl.iter
        (fun _ h ->
          Atomic.set h.value 0;
          Atomic.set h.touched false)
        counters_tbl;
      Array.fill !ring 0 (Array.length !ring) None;
      ring_next := 0;
      epoch := Unix.gettimeofday ())

let dropped () = locked (fun () -> max 0 (!ring_next - Array.length !ring))

let spans () =
  locked (fun () ->
      let cap = Array.length !ring in
      let n = min !ring_next cap in
      let first = if !ring_next <= cap then 0 else !ring_next mod cap in
      List.init n (fun i ->
          match !ring.((first + i) mod cap) with
          | Some s -> s
          | None -> assert false))

(* ---- span capture ---- *)

(* the stack of open span names on the current domain, innermost first *)
let span_stack : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let current_parent () =
  match Domain.DLS.get span_stack with [] -> None | p :: _ -> Some p

let with_span ?(args = []) name f =
  let outer = Domain.DLS.get span_stack in
  let parent = match outer with [] -> None | p :: _ -> Some p in
  Domain.DLS.set span_stack (name :: outer);
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set span_stack outer;
      locked (fun () ->
          record_duration_locked name (t1 -. t0);
          if !enabled_flag then begin
            let s =
              {
                sp_name = name;
                sp_args = args;
                sp_parent = parent;
                sp_domain = (Domain.self () :> int);
                sp_start = t0 -. !epoch;
                sp_dur = t1 -. t0;
              }
            in
            let cap = Array.length !ring in
            !ring.(!ring_next mod cap) <- Some s;
            Stdlib.incr ring_next
          end))
    f
