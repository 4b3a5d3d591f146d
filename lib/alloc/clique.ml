(* Super-node clique merging. Each group keeps the set of original nodes
   it contains; two groups are compatible iff all cross pairs are.

   The optimized implementation keeps group-level compatibility as
   Bytes-backed bitsets (adjacency matrix over group slots) and a matrix
   of common-neighbor scores that is updated incrementally on each
   merge, instead of re-deriving both from the member lists with nested
   List.for_all scans. Merge choices (including tie-breaks) replicate
   the reference implementation exactly: candidate pairs are visited in
   the same order — most recently merged group first, then remaining
   groups by age — and a pair only displaces the incumbent best on a
   strictly greater score. *)

let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) lor (1 lsl (i land 7))))

let bit_clear b i =
  Bytes.unsafe_set b (i lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b (i lsr 3)) land lnot (1 lsl (i land 7))))

(* built at initialization: a [lazy] forced from two domains at once
   raises *)
let popcount_table =
  let t = Bytes.make 256 '\000' in
  for i = 0 to 255 do
    let rec bits x = if x = 0 then 0 else (x land 1) + bits (x lsr 1) in
    Bytes.set t i (Char.chr (bits i))
  done;
  t

let popcount_and a b =
  let t = popcount_table in
  let acc = ref 0 in
  for i = 0 to Bytes.length a - 1 do
    acc :=
      !acc
      + Char.code (Bytes.get t (Char.code (Bytes.get a i) land Char.code (Bytes.get b i)))
  done;
  !acc

let partition ~n ~compatible =
  if n = 0 then []
  else begin
    let bytes = (n + 7) / 8 in
    (* slot g is alive iff it appears in [order]; a merge folds the later
       slot into the earlier one *)
    let members = Array.init n (fun i -> [ i ]) in
    let adj = Array.init n (fun _ -> Bytes.make bytes '\000') in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if compatible i j then begin
          bit_set adj.(i) j;
          bit_set adj.(j) i
        end
      done
    done;
    (* score.(i*n+j): common compatible neighbors of groups i and j.
       adj excludes self-bits, so the AND automatically excludes both
       endpoints. *)
    let score = Array.make (n * n) 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let s = popcount_and adj.(i) adj.(j) in
        score.((i * n) + j) <- s;
        score.((j * n) + i) <- s
      done
    done;
    let order = ref (List.init n (fun i -> i)) in
    let find_best () =
      let best = ref None in
      let rec pairs = function
        | [] -> ()
        | ga :: rest ->
            List.iter
              (fun gb ->
                if bit_get adj.(ga) gb then begin
                  let s = score.((ga * n) + gb) in
                  match !best with
                  | Some (s', _, _) when s' >= s -> ()
                  | _ -> best := Some (s, ga, gb)
                end)
              rest;
            pairs rest
      in
      pairs !order;
      !best
    in
    let alive = Array.make n true in
    let merge ga gb =
      (* merged adjacency: compatible with both halves *)
      let merged = Bytes.make bytes '\000' in
      for i = 0 to bytes - 1 do
        Bytes.set merged i
          (Char.chr (Char.code (Bytes.get adj.(ga) i) land Char.code (Bytes.get adj.(gb) i)))
      done;
      bit_clear merged ga;
      bit_clear merged gb;
      (* incremental score update for surviving pairs: ga and gb stop
         being anyone's neighbor; the merged group (slot ga) starts being
         one where [merged] says so *)
      alive.(gb) <- false;
      let survivors = List.filter (fun g -> g <> ga && g <> gb) !order in
      let rec update = function
        | [] -> ()
        | x :: rest ->
            List.iter
              (fun y ->
                let had_a = bit_get adj.(x) ga && bit_get adj.(y) ga in
                let had_b = bit_get adj.(x) gb && bit_get adj.(y) gb in
                let has_m = bit_get merged x && bit_get merged y in
                let d = (if has_m then 1 else 0) - (if had_a then 1 else 0) - (if had_b then 1 else 0) in
                if d <> 0 then begin
                  score.((x * n) + y) <- score.((x * n) + y) + d;
                  score.((y * n) + x) <- score.((y * n) + x) + d
                end)
              rest;
            update rest
      in
      update survivors;
      (* rewrite adjacency bits for the merged slot *)
      List.iter
        (fun h ->
          bit_clear adj.(h) gb;
          if bit_get merged h then bit_set adj.(h) ga else bit_clear adj.(h) ga)
        survivors;
      Bytes.blit merged 0 adj.(ga) 0 bytes;
      members.(ga) <- members.(ga) @ members.(gb);
      (* fresh scores for pairs involving the merged group *)
      List.iter
        (fun h ->
          let s = popcount_and adj.(ga) adj.(h) in
          score.((ga * n) + h) <- s;
          score.((h * n) + ga) <- s)
        survivors;
      order := ga :: survivors
    in
    let rec loop () =
      match find_best () with
      | None -> ()
      | Some (_, ga, gb) ->
          merge ga gb;
          Hls_obs.Trace.incr "alloc/clique_merges";
          loop ()
    in
    loop ();
    List.filter_map
      (fun g -> if alive.(g) then Some (List.sort compare members.(g)) else None)
      (List.init n (fun i -> i))
    |> List.sort (fun a b ->
           match (a, b) with x :: _, y :: _ -> compare x y | _, _ -> 0)
  end
