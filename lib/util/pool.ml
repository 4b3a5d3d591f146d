(* Domain-based worker pool. Worker domains drain a Mutex/Condition-
   protected work queue; [map] slices a list into chunks so results
   always come back in input order no matter which worker ran them.

   Workers are spawned lazily: [create] spawns nothing, and [submit]
   only starts a new domain when every already-running worker is busy
   (the queue is backing up) and the pool is still under its worker
   cap. A process-wide shared pool sized to the machine
   ([recommended_domain_count () - 1] — the caller's domain is the
   remaining lane) backs [map] unless an explicit pool is passed, so
   repeated parallel regions stop paying per-region domain spawn and
   join. On a machine without spare cores the shared pool's cap is 0
   and every [map] degrades to the serial inline path — adaptive
   fallback rather than paying contention for no parallelism. *)

type t = {
  lock : Mutex.t;
  work_ready : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable spawned : unit Domain.t list;
  mutable n_spawned : int;
  mutable n_idle : int;  (** workers blocked on [work_ready] *)
  max_workers : int;
}

let rec worker_loop pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue && not pool.closed do
    pool.n_idle <- pool.n_idle + 1;
    Condition.wait pool.work_ready pool.lock;
    pool.n_idle <- pool.n_idle - 1
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.lock
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.lock;
    Hls_obs.Trace.incr "pool/steals";
    task ();
    worker_loop pool
  end

let create ~workers:n =
  {
    lock = Mutex.create ();
    work_ready = Condition.create ();
    queue = Queue.create ();
    closed = false;
    spawned = [];
    n_spawned = 0;
    n_idle = 0;
    max_workers = max 0 n;
  }

let submit pool task =
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task pool.queue;
  let depth = Queue.length pool.queue in
  (* lazy spin-up: only add a domain when nobody idle is going to pick
     this task up and the cap allows another worker *)
  let spawn = pool.n_idle = 0 && pool.n_spawned < pool.max_workers in
  if spawn then begin
    pool.n_spawned <- pool.n_spawned + 1;
    pool.spawned <- Domain.spawn (fun () -> worker_loop pool) :: pool.spawned
  end;
  Condition.signal pool.work_ready;
  Mutex.unlock pool.lock;
  if spawn then Hls_obs.Trace.incr "pool/domains_spawned";
  Hls_obs.Trace.incr "pool/submitted";
  Hls_obs.Trace.record_max "pool/queue_peak" depth

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.work_ready;
  (* with no worker ever spawned, nobody else can drain what is queued:
     run the remainder on the calling domain so "let queued tasks
     finish" holds for lazily-empty pools too *)
  let stranded =
    if pool.n_spawned = 0 then begin
      let ts = List.of_seq (Queue.to_seq pool.queue) in
      Queue.clear pool.queue;
      ts
    end
    else []
  in
  let workers = pool.spawned in
  pool.spawned <- [];
  Mutex.unlock pool.lock;
  List.iter (fun task -> task ()) stranded;
  List.iter Domain.join workers

(* ---- shared process-wide pool ---- *)

(* created on first use, under a lock: the first calls may come from
   several domains at once, and forcing one [lazy] from two domains
   raises *)
let shared =
  let lock = Mutex.create () and cell = ref None in
  fun () ->
    Hls_obs.Sync.with_lock lock (fun () ->
        match !cell with
        | Some p -> p
        | None ->
            let p = create ~workers:(max 0 (Domain.recommended_domain_count () - 1)) in
            at_exit (fun () -> if not p.closed then shutdown p);
            cell := Some p;
            p)

(* ---- futures ---- *)

(* A future is either a deferred thunk (no parallelism available: it
   runs on the calling domain at [await], preserving the exact
   observable order a serial driver would see) or a task submitted to
   a pool, in which case [await] helps drain that pool's queue while
   waiting so a caller blocked on one verdict still advances everyone
   else's work. *)
type 'a fstate =
  | F_deferred of (unit -> 'a)
  | F_pending
  | F_value of 'a
  | F_raised of exn

type 'a future = {
  f_lock : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a fstate;
  f_help : t option;  (** pool whose queue [await] drains while blocked *)
}

let async ?pool ?(jobs = 1) f =
  let pool' = pool in
  let fresh state help =
    {
      f_lock = Mutex.create ();
      f_cond = Condition.create ();
      f_state = state;
      f_help = help;
    }
  in
  let resolve p =
    let parallel = jobs > 1 && p.max_workers >= 1 && not p.closed in
    if not parallel then fresh (F_deferred f) None
    else begin
      let fut = fresh F_pending (Some p) in
      submit p (fun () ->
          let r = try F_value (f ()) with e -> F_raised e in
          Mutex.lock fut.f_lock;
          fut.f_state <- r;
          Condition.broadcast fut.f_cond;
          Mutex.unlock fut.f_lock);
      fut
    end
  in
  match pool' with
  | Some p -> resolve p
  | None ->
      if jobs <= 1 then fresh (F_deferred f) None
      else resolve (shared ())

let await fut =
  let deferred =
    Mutex.lock fut.f_lock;
    let d = match fut.f_state with F_deferred g -> Some g | _ -> None in
    Mutex.unlock fut.f_lock;
    d
  in
  match deferred with
  | Some g -> (
      match (try Ok (g ()) with e -> Error e) with
      | Ok v ->
          fut.f_state <- F_value v;
          v
      | Error e ->
          fut.f_state <- F_raised e;
          raise e)
  | None ->
      let pool = match fut.f_help with Some p -> p | None -> assert false in
      let rec drive () =
        let settled =
          Mutex.lock fut.f_lock;
          let s =
            match fut.f_state with
            | F_value v -> Some (Ok v)
            | F_raised e -> Some (Error e)
            | _ -> None
          in
          Mutex.unlock fut.f_lock;
          s
        in
        match settled with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None ->
            let task =
              Mutex.lock pool.lock;
              let t =
                if Queue.is_empty pool.queue then None
                else Some (Queue.pop pool.queue)
              in
              Mutex.unlock pool.lock;
              t
            in
            (match task with
            | Some t ->
                Hls_obs.Trace.incr "pool/caller_runs";
                t ()
            | None ->
                (* queue drained but our task is still running on some
                   domain: block until its completion broadcast *)
                Mutex.lock fut.f_lock;
                (match fut.f_state with
                | F_pending -> Condition.wait fut.f_cond fut.f_lock
                | _ -> ());
                Mutex.unlock fut.f_lock);
            drive ()
      in
      drive ()

(* [pool/workers_active] is a per-[map]-call watermark: how many
   distinct domains (workers and the caller alike) ran at least one
   chunk of that call. With a long-lived shared pool, worker identity
   alone can't express this — a region id handed to each chunk closure
   plus a per-domain "last region I counted myself in" slot can. *)
let region_ids = Atomic.make 0
let last_region : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let note_participant ~region participants =
  if Domain.DLS.get last_region <> region then begin
    Domain.DLS.set last_region region;
    Hls_obs.Trace.record_max "pool/workers_active"
      (1 + Atomic.fetch_and_add participants 1)
  end

(* Chunks never let exceptions escape into the worker loop: each item
   slot records either the result or the exception, re-raised at
   collection time in input order. *)
let map ?pool ?(jobs = 1) f xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let pool = match pool with Some p -> p | None -> shared () in
    (* the caller is a full participant (it helps drain), so available
       parallelism is the worker cap plus one *)
    let lanes = min jobs (pool.max_workers + 1) in
    (* a few chunks per lane for balance, but no chunk smaller than
       [min_chunk] items — per-task locking on tiny tasks is exactly
       the overhead chunking exists to amortize *)
    let min_chunk = 4 in
    let chunks = min (2 * lanes) ((n + min_chunk - 1) / min_chunk) in
    if lanes <= 1 || chunks <= 1 || pool.closed then begin
      (* adaptive serial fallback: jobs>1 on a machine (or pool) with no
         spare workers must never run slower than jobs=1 *)
      Hls_obs.Trace.incr "pool/serial_fallbacks";
      Hls_obs.Trace.record_max "pool/workers_active" 1;
      List.map f xs
    end
    else begin
      let items = Array.of_list xs in
      let results = Array.make n None in
      let local_lock = Mutex.create () in
      let all_done = Condition.create () in
      let remaining = ref chunks in
      let region = Atomic.fetch_and_add region_ids 1 in
      let participants = Atomic.make 0 in
      let run_chunk lo hi () =
        note_participant ~region participants;
        for i = lo to hi - 1 do
          results.(i) <- Some (try Ok (f items.(i)) with e -> Error e)
        done;
        Mutex.lock local_lock;
        decr remaining;
        if !remaining = 0 then Condition.signal all_done;
        Mutex.unlock local_lock
      in
      for c = 0 to chunks - 1 do
        let lo = c * n / chunks and hi = (c + 1) * n / chunks in
        submit pool (run_chunk lo hi)
      done;
      (* caller helps drain: run queued chunks (ours or a concurrent
         region's) until this region's chunks have all settled *)
      let rec drive () =
        let task =
          Mutex.lock pool.lock;
          if Queue.is_empty pool.queue then begin
            Mutex.unlock pool.lock;
            None
          end
          else begin
            let t = Queue.pop pool.queue in
            Mutex.unlock pool.lock;
            Some t
          end
        in
        match task with
        | Some t ->
            Hls_obs.Trace.incr "pool/caller_runs";
            t ();
            drive ()
        | None ->
            Mutex.lock local_lock;
            let again = !remaining > 0 in
            if again then Condition.wait all_done local_lock;
            Mutex.unlock local_lock;
            if again then drive ()
      in
      drive ();
      (* collection in input order: the first raising item's original
         exception wins, exactly as the serial path would raise it.
         Every other chunk has already run to completion (the [remaining]
         barrier), so one poison item never strands sibling chunks or
         leaks queued work into later maps. A [None] slot is a pool
         invariant violation (a chunk signalled completion without
         publishing), not a user error — name the item and the chunking
         so the report is actionable. *)
      Array.to_list
        (Array.mapi
           (fun i r ->
             match r with
             | Some (Ok v) -> v
             | Some (Error e) -> raise e
             | None ->
                 invalid_arg
                   (Printf.sprintf
                      "Pool.map: internal invariant broken — no result for item \
                       %d/%d (chunk %d of %d) despite completion barrier"
                      i n
                      ((((i + 1) * chunks) - 1) / n)
                      chunks))
           results)
    end
  end
