open Hls_lang
open Hls_sched

(* Memo layers, outermost first. Each key is exactly the set of option
   fields the stage's result depends on, as the option table
   (Flow.Knob) declares them:

   persist   binary, source, verify, the key of every stage — only with
             [config.cache_dir]; backed by the on-disk store
   frontend  ()                                         — per engine
   midend    stage_key [Midend]
   schedule  stage_key [Midend; Schedule]         — stores the schedule's
             content digest with it, computed once per miss
   block     midend key + block id + scheduler + the limits that can
             bind on the block (Depgraph.binding_limits) — probed by
             schedule misses only, one probe per block
   backend   midend key + schedule digest + stage_key [Backend]
   control   midend key + encoding + each block's step count — probed
             by backend misses only
   refine    backend key + stage_key [Refine]

   Stage keys print the limits as [Unlimited] for schedulers that
   ignore them (see {!Flow.scheduler_ignores_limits}), so e.g.
   force-directed runs once across a whole limits sweep. The
   backend layer keys on the schedule's {e content} rather than on the
   scheduler that produced it: two option points whose schedulers place
   every operation identically share one allocation/binding/control
   synthesis, and the cached design is rewrapped with the point's own
   options.

   The control layer sits inside the backend: "a control step
   corresponds to a state in the controlling finite state machine", so
   the FSM — and with it the synthesized controller — depends only on
   the CFG and each block's step count, and backend runs whose
   schedules place operations differently but take as many steps per
   block share one controller synthesis. A hit is rebound to the
   design's own datapath FSM (Ctrl_synth.with_fsm), so every design is
   the value a fresh Flow run builds, down to its Marshal image.

   The persist layer sits on top and spans process lifetimes: an
   in-memory single-flight table over whole evaluated points, with a
   content-addressed disk store (Hls_util.Disk_cache) underneath. A
   warm restart probes memory (miss), then disk (hit) and answers
   without running any pipeline stage; corrupt or truncated entries
   read as a miss and fall through to a fresh compute. Its key mirrors
   the layered memo keys — same source, same verify mode, same
   canonicalized options — plus a digest of the running binary, so a
   rebuilt toolchain can never unmarshal a stale incompatible image.

   Memoization is single-flight: a slot is either [Done] or [Pending],
   and a worker that finds a key pending blocks on the engine's
   condition variable until the computing worker publishes the value.
   Exactly one compute ever runs per key, which is what makes every
   kernel counter in Hls_obs.Trace — and the hit/miss totals below — a
   deterministic function of the evaluated points, independent of the
   worker count.

   Every acquisition of the engine lock goes through Sync.with_lock: a
   raise inside a critical section (or from a compute observed under
   the lock) must never leave the lock held — in a long-lived serve
   daemon that would wedge every future request, not just this one. *)

(* Every key is built from Flow.Knob.stage_key: the canonical text of
   the option fields a stage reads, so equal points print equally and
   any semantic difference (pass set, fact folding, scheduler slack,
   class caps, ...) is a distinct key. A point's stage texts are
   printed once per call, then every layer's key is assembled from
   them. *)
type keys = {
  options : Flow.options;
  mid : string;
  sched : string;
  back : string;  (** the [Backend] part *)
  refine : string;  (** the [Refine] part *)
}

let keys options =
  let part s = Flow.Knob.stage_key [ s ] options in
  let mid = part Midend in
  { options; mid; sched = mid ^ part Schedule; back = part Backend; refine = part Refine }

let backend_key k ~digest = String.concat "|" [ k.mid; digest; k.back ]

(* Refinement layer: the one-shot backend seed plus the constraints the
   acceptance loop runs under (the effective limits candidates are
   checked against, and the iterate bound). *)
let refine_key k ~digest = backend_key k ~digest ^ "|" ^ k.refine

let class_key k ~digest =
  if k.options.Flow.iterate <= 0 then backend_key k ~digest else refine_key k ~digest

(* Block layer: a block's schedule depends on the block (fixed by the
   midend key and its id), the scheduler, and only the caps that can
   bind on it — limits a scheduler ignores are already [Unlimited]. It
   is probed once per block of every schedule miss, so its key is a
   value, not printed text. *)
type block_key = {
  b_mid : string;
  b_bid : int;
  b_scheduler : Flow.scheduler;
  b_limits : Limits.t;
}

let block_key k (o : Flow.optimized) bid =
  let options = k.options in
  {
    b_mid = k.mid;
    b_bid = bid;
    b_scheduler = options.Flow.scheduler;
    b_limits =
      Depgraph.binding_limits ~limits:(Flow.effective_limits options) o.Flow.o_deps.(bid);
  }

(* Control layer: the FSM is a function of the CFG (fixed by the midend
   key) and each block's step count, and the controller of the FSM and
   the encoding. *)
let control_key k sched =
  let cfg = Cfg_sched.cfg sched in
  let steps =
    List.map
      (fun bid -> string_of_int (Schedule.n_steps (Cfg_sched.block_schedule sched bid)))
      (Hls_cdfg.Cfg.block_ids cfg)
  in
  String.concat "|"
    [ k.mid; Flow.Knob.text Flow.Knob.encoding k.options.Flow.encoding;
      String.concat "," steps ]

type config = {
  jobs : int;
  verify : bool;
  memoize : bool;
  cache_dir : string option;
}

let default_config = { jobs = 1; verify = false; memoize = true; cache_dir = None }

type layer = { hits : int; misses : int }
type stats = {
  frontend : layer;
  midend : layer;
  schedule : layer;
  block : layer;
  backend : layer;
  control : layer;
  refine : layer;
}

(* a layer's tallies and its two trace counter cells *)
type counter = {
  trace_hits : Hls_obs.Trace.handle;
  trace_misses : Hls_obs.Trace.handle;
  mutable c_hits : int;
  mutable c_misses : int;
}

let counter name =
  {
    trace_hits = Hls_obs.Trace.handle ("dse/" ^ name ^ ".hits");
    trace_misses = Hls_obs.Trace.handle ("dse/" ^ name ^ ".misses");
    c_hits = 0;
    c_misses = 0;
  }
type 'v slot = Done of 'v | Pending

type presult = (Flow.design, Hls_analysis.Diagnostic.t list) result

type t = {
  lock : Mutex.t;
  done_cond : Condition.t;
  config : config;
  source : [ `Src of string | `Ast of Ast.program ];
  source_key : string;
  front : (unit, Flow.compiled slot) Hashtbl.t;
  mid : (string, Flow.optimized slot) Hashtbl.t;
  scheds : (string, (Cfg_sched.t * string) slot) Hashtbl.t;
  blocks : (block_key, Schedule.t slot) Hashtbl.t;
  backs : (string, presult slot) Hashtbl.t;
  controls : (string, Hls_ctrl.Ctrl_synth.t slot) Hashtbl.t;
  refines : (string, presult slot) Hashtbl.t;
  persist : (string, presult slot) Hashtbl.t;
  n_front : counter;
  n_mid : counter;
  n_sched : counter;
  n_block : counter;
  n_back : counter;
  n_control : counter;
  n_refine : counter;
  n_persist : counter;
}

(* The identity of the running binary participates in every disk key:
   entries are Marshal images of design values, and unmarshalling an
   image written by a binary with different type layouts is undefined
   behavior. Keying on the executable digest turns "stale cache after
   rebuild" into ordinary misses. Computed once, under a lock: a daemon's
   first requests may arrive on several domains at once, and forcing one
   [lazy] from two domains raises. *)
let binary_digest =
  let lock = Mutex.create () and cell = ref None in
  fun () ->
    Hls_obs.Sync.with_lock lock (fun () ->
        match !cell with
        | Some d -> d
        | None ->
            let d =
              try Digest.to_hex (Digest.file Sys.executable_name)
              with Sys_error _ -> "unknown-binary"
            in
            cell := Some d;
            d)

let source_key = function
  | `Src s -> Digest.to_hex (Digest.string s)
  | `Ast a -> Digest.to_hex (Digest.string (Marshal.to_string (a : Ast.program) []))

let make_engine config source =
  {
    lock = Mutex.create ();
    done_cond = Condition.create ();
    config;
    source;
    source_key = source_key source;
    front = Hashtbl.create 1;
    mid = Hashtbl.create 8;
    scheds = Hashtbl.create 64;
    blocks = Hashtbl.create 256;
    backs = Hashtbl.create 64;
    controls = Hashtbl.create 64;
    refines = Hashtbl.create 16;
    persist = Hashtbl.create 64;
    n_front = counter "frontend";
    n_mid = counter "midend";
    n_sched = counter "schedule";
    n_block = counter "block";
    n_back = counter "backend";
    n_control = counter "control";
    n_refine = counter "refine";
    n_persist = counter "persist";
  }

let create ?(config = default_config) src = make_engine config (`Src src)
let create_program ?(config = default_config) ast = make_engine config (`Ast ast)
let config t = t.config

let clear t =
  Hls_obs.Sync.with_lock t.lock (fun () ->
      Hashtbl.reset t.front;
      Hashtbl.reset t.mid;
      Hashtbl.reset t.scheds;
      Hashtbl.reset t.blocks;
      Hashtbl.reset t.backs;
      Hashtbl.reset t.controls;
      Hashtbl.reset t.refines;
      Hashtbl.reset t.persist;
      List.iter
        (fun c ->
          c.c_hits <- 0;
          c.c_misses <- 0)
        [ t.n_front; t.n_mid; t.n_sched; t.n_block; t.n_back; t.n_control; t.n_refine;
          t.n_persist ])

let stats t =
  Hls_obs.Sync.with_lock t.lock (fun () ->
      let layer c = { hits = c.c_hits; misses = c.c_misses } in
      {
        frontend = layer t.n_front;
        midend = layer t.n_mid;
        schedule = layer t.n_sched;
        block = layer t.n_block;
        backend = layer t.n_back;
        control = layer t.n_control;
        refine = layer t.n_refine;
      })

let pp_stats ppf s =
  let line name l = Format.fprintf ppf "%-9s %4d hits %4d misses@." name l.hits l.misses in
  line "frontend" s.frontend;
  line "midend" s.midend;
  line "schedule" s.schedule;
  line "block" s.block;
  line "backend" s.backend;
  line "control" s.control;
  line "refine" s.refine

(* Single-flight memoization. The first prober of a key installs
   [Pending], computes unlocked, publishes [Done] and broadcasts; later
   probers of the same key count a hit and block until the value lands.
   If the computing worker dies, the slot is removed, waiters are woken,
   and the first to notice takes the compute over. Hit/miss counts are
   decided at a probe's first look, so totals are identical for any
   worker count: one miss per unique key, hits for every other probe. *)
let memo t ctr tbl key compute =
  let locked f = Hls_obs.Sync.with_lock t.lock f in
  let bump_trace hit = Hls_obs.Trace.bump (if hit then ctr.trace_hits else ctr.trace_misses) in
  if not t.config.memoize then begin
    locked (fun () -> ctr.c_misses <- ctr.c_misses + 1);
    bump_trace false;
    compute ()
  end
  else begin
    let publish v =
      locked (fun () ->
          Hashtbl.replace tbl key (Done v);
          Condition.broadcast t.done_cond)
    in
    let unpublish () =
      locked (fun () ->
          Hashtbl.remove tbl key;
          Condition.broadcast t.done_cond)
    in
    let compute_published () =
      match compute () with
      | v ->
          publish v;
          v
      | exception e ->
          unpublish ();
          raise e
    in
    let role =
      locked (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some (Done v) ->
              ctr.c_hits <- ctr.c_hits + 1;
              `Hit v
          | Some Pending ->
              ctr.c_hits <- ctr.c_hits + 1;
              `Wait
          | None ->
              ctr.c_misses <- ctr.c_misses + 1;
              Hashtbl.replace tbl key Pending;
              `Compute)
    in
    match role with
    | `Hit v ->
        bump_trace true;
        v
    | `Compute ->
        let v = compute_published () in
        bump_trace false;
        v
    | `Wait -> (
        bump_trace true;
        let outcome =
          locked (fun () ->
              let rec await () =
                match Hashtbl.find_opt tbl key with
                | Some (Done v) -> `Done v
                | Some Pending ->
                    Condition.wait t.done_cond t.lock;
                    await ()
                | None ->
                    (* the computing worker died: take the compute over
                       (still counted as the hit decided at first look) *)
                    Hashtbl.replace tbl key Pending;
                    `Take_over
              in
              await ())
        in
        match outcome with `Done v -> v | `Take_over -> compute_published ())
  end

(* The cheap front of the staged flow: frontend, midend and scheduling
   through the memo layers. Shared verbatim between [eval_result] and
   [eval_cheap] so a pruned sweep's ranking pass and the later full
   evaluation of the survivors probe exactly the same cache keys. The
   schedule's content digest is computed once, on a schedule miss, and
   cached with it. *)
let eval_stages t k =
  let options = k.options in
  let c =
    memo t t.n_front t.front () (fun () ->
        match t.source with
        | `Src s -> Flow.frontend s
        | `Ast a -> Flow.frontend_program a)
  in
  let o =
    memo t t.n_mid t.mid k.mid (fun () ->
        Flow.midend ~passes:options.passes ~if_conversion:options.if_conversion c)
  in
  let sched, digest =
    memo t t.n_sched t.scheds k.sched (fun () ->
        let block bid compute = memo t t.n_block t.blocks (block_key k o bid) compute in
        let sched = Flow.schedule ~block options o in
        (sched, Cfg_sched.digest sched))
  in
  (o, sched, digest)

(* span attributes only while tracing captures spans *)
let span_args options = if Hls_obs.Trace.enabled () then Flow.Knob.attrs options else []

let eval_class t (options : Flow.options) =
  Hls_obs.Trace.with_span "dse/cheap" ~args:(span_args options) (fun () ->
      let k = keys options in
      let o, sched, digest = eval_stages t k in
      (o, sched, class_key k ~digest))

let eval_cheap t options =
  let o, sched, _ = eval_class t options in
  (o, sched)

(* One full point through the staged in-memory layers (everything the
   engine did before the persistent layer existed). *)
let eval_staged t k =
  let options = k.options in
  let o, sched, digest = eval_stages t k in
  let control fsm =
    let ctrl =
      memo t t.n_control t.controls (control_key k sched) (fun () ->
          Hls_ctrl.Ctrl_synth.synthesize ~style:options.encoding fsm)
    in
    Hls_ctrl.Ctrl_synth.with_fsm ctrl fsm
  in
  let seeded =
    memo t t.n_back t.backs (backend_key k ~digest) (fun () ->
        Flow.complete_result ~control options o ~sched)
  in
  let refined =
    if options.iterate <= 0 then seeded
    else
      (* the refined design depends on the seed, the limits the
         candidates must verify under, and the iteration bound — all in
         the key, so the memo can be shared across points and stays
         deterministic at any job count (single-flight) *)
      memo t t.n_refine t.refines (refine_key k ~digest) (fun () ->
          match seeded with
          | Error ds -> Error ds
          | Ok seed -> Ok (fst (Flow.refine_design options o seed)))
  in
  match refined with
  | Error ds ->
      (* a structural netlist failure is as cacheable as a design:
         every point probing this backend key reports the same
         diagnostics *)
      Error ds
  | Ok d ->
      (* lint the rewrapped design, outside the memo: a backend cache
         hit is verified under the point's own options exactly like a
         fresh run *)
      let d = { d with Flow.options } in
      if t.config.verify then
        Hls_obs.Trace.with_span "lint" (fun () ->
            match Hls_analysis.Diagnostic.errors (Flow.lint d) with
            | [] -> Ok d
            | es -> Error es)
      else Ok d

(* ---- the persistent point layer ---- *)

(* What one disk entry holds: the evaluated point's result (design or
   diagnostics) plus the engine's dse/* counter totals at store time —
   observability breadcrumbs for cache forensics, never re-imported. *)
type disk_entry = {
  de_result : presult;
  de_counters : (string * int) list;
  de_stored_at : float;
}

let point_key t (options : Flow.options) =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            binary_digest ();
            t.source_key;
            string_of_bool t.config.verify;
            Flow.Knob.stage_key [ Midend; Schedule; Backend; Refine ] options;
          ]))

let design_digest (d : Flow.design) = Digest.to_hex (Digest.string (Marshal.to_string d []))

let dse_counters () =
  List.filter
    (fun (name, _) -> String.length name >= 4 && String.sub name 0 4 = "dse/")
    (Hls_obs.Trace.counters ())

let disk_probe t key compute =
  match t.config.cache_dir with
  | None -> compute ()
  | Some dir -> (
      let compute_and_store () =
        Hls_obs.Trace.incr "serve/disk_misses";
        let r = compute () in
        ignore
          (Hls_util.Disk_cache.store ~dir ~key
             (Marshal.to_string
                {
                  de_result = r;
                  de_counters = dse_counters ();
                  de_stored_at = Unix.gettimeofday ();
                }
                []));
        r
      in
      match Hls_util.Disk_cache.load ~dir ~key with
      | Some payload -> (
          (* integrity is already digest-checked by Disk_cache (and the
             binary digest in the key fences off images from other
             builds); decode defensively anyway so a surprise still
             degrades to a miss rather than killing a server *)
          match (Marshal.from_string payload 0 : disk_entry) with
          | entry ->
              Hls_obs.Trace.incr "serve/disk_hits";
              entry.de_result
          | exception _ -> compute_and_store ())
      | None -> compute_and_store ())

let points_counter = Hls_obs.Trace.handle "dse/points"

let eval_result t (options : Flow.options) =
  Hls_obs.Trace.with_span "dse/point" ~args:(span_args options) (fun () ->
      Hls_obs.Trace.bump points_counter;
      if t.config.cache_dir = None || not t.config.memoize then eval_staged t (keys options)
      else
        let key = point_key t options in
        let r =
          memo t t.n_persist t.persist key (fun () ->
              disk_probe t key (fun () -> eval_staged t (keys options)))
        in
        (* a persist hit may carry another point's options (same key =
           same canonicalized options, but e.g. a different ignored
           limits field): stamp the request's own options back on *)
        match r with Ok d -> Ok { d with Flow.options } | Error ds -> Error ds)

let run_result t options_list =
  (* jobs as configured; Pool.map adapts parallelism to the spare
     cores free (serial fallback when there are none), and the
     single-flight cache makes counter totals worker-count independent
     either way *)
  Hls_util.Pool.map ~jobs:t.config.jobs (eval_result t) options_list
