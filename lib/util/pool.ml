(* Fork-join parallel map. A call takes spare lanes from one
   process-wide budget, spawns one domain per lane for this call only,
   and has the caller and those domains pull item indices from one
   atomic counter. It joins them and gives the lanes back before
   collecting the results in input order. *)

let spare = Atomic.make (max 0 (Domain.recommended_domain_count () - 1))

(* up to [want] lanes from the budget; 0 when none is free *)
let rec take want =
  let free = Atomic.get spare in
  let got = min want free in
  if got <= 0 then 0
  else if Atomic.compare_and_set spare free (free - got) then got
  else take want

let give k = ignore (Atomic.fetch_and_add spare k)

(* a map this short runs on the caller alone: spawning a domain costs
   more *)
let inline_max = 4

let map ?(jobs = 1) f xs =
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let lanes = if n <= inline_max then 0 else take (jobs - 1) in
    if lanes = 0 then Hls_obs.Trace.incr "pool/serial_fallbacks";
    let items = Array.of_list xs in
    (* each slot is written by the one lane that drew its index and read
       only after every lane is joined; items never raise out of a lane,
       so one poison item strands nothing *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec lane ran =
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then ran
      else begin
        results.(i) <- Some (try Ok (f items.(i)) with e -> Error e);
        lane (ran + 1)
      end
    in
    let spawned =
      List.filter_map
        (fun _ ->
          match Domain.spawn (fun () -> lane 0) with
          | d -> Some d
          | exception _ ->
              give 1;
              None)
        (List.init lanes Fun.id)
    in
    let own = lane 0 in
    let ran = own :: List.map Domain.join spawned in
    give (List.length spawned);
    Hls_obs.Trace.record_max "pool/workers_active"
      (List.length (List.filter (fun k -> k > 0) ran));
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
         results)
  end
