let max_inputs = 12

(* Implicant table: one bit per cube, where a cube's index holds one
   base-3 digit per input (0 or 1 = literal, 2 = don't-care), so a dash
   of weight w = 3^i has the children c - 2w and c - w. *)
let get tbl c = Char.code (Bytes.get tbl (c lsr 3)) land (1 lsl (c land 7)) <> 0

let set tbl c =
  let b = c lsr 3 in
  Bytes.set tbl b (Char.chr (Char.code (Bytes.get tbl b) lor (1 lsl (c land 7))))

(* pow3.(i) = 3^i, the weight of input i's digit *)
let pow3 =
  let rec power3 i = if i = 0 then 1 else 3 * power3 (i - 1) in
  Array.init (max_inputs + 1) power3

let cube_of_minterm m =
  let rec go m w c = if m = 0 then c else go (m lsr 1) (3 * w) (c + (w * (m land 1))) in
  go m 1 0

(* A cube's sort key: its literal mask above [max_inputs] bits of value,
   so ascending keys are ascending [(mask, value)]. An implicant found by
   the walk is kept as one immediate int, its index above its key. *)
let lit i = 1 lsl (max_inputs + i)
let key_bits = 2 * max_inputs
let key_of packed = packed land ((1 lsl key_bits) - 1)

(* Decides the cubes under prefix [c] (key [key]) whose digits [i] and
   below are free, in increasing index order, so that a cube's children
   at its lowest dash (of weight [low]; 0 for none) come first, and
   conses every implicant onto [acc]. A subtree holds an implicant iff
   it returns a longer list. Both cofactors at any dash of an implicant
   are implicants, so a dash branch whose literal branches do not both
   hold one is skipped — and the walk still visits every implicant. *)
let rec fill tbl acc i c key low =
  if i < 0 then
    if get tbl c || (low > 0 && get tbl (c - (2 * low)) && get tbl (c - low) && (set tbl c; true))
    then ((c lsl key_bits) lor key) :: acc
    else acc
  else begin
    let w = pow3.(i) in
    let zero = fill tbl acc (i - 1) c (key lor lit i) low in
    let one = fill tbl zero (i - 1) (c + w) (key lor lit i lor (1 lsl i)) low in
    if zero != acc && one != zero then fill tbl one (i - 1) (c + (2 * w)) key w else one
  end

(* Whether a literal of the implicant at index [c] with key [key], from
   input [i] up, can be raised to a dash inside the table; the literal's
   digit is read off the key, never off the index. *)
let rec raisable tbl n_inputs c key i =
  i < n_inputs
  && ((key land lit i <> 0 && get tbl (c + ((2 - ((key lsr i) land 1)) * pow3.(i))))
     || raisable tbl n_inputs c key (i + 1))

(* Primes in ascending (mask, value) order: the implicants none of whose
   one-more-dash parents is in the table. *)
let primes tbl n_inputs found =
  let keys =
    Array.of_list
      (List.fold_left
         (fun acc p ->
           let key = key_of p in
           if raisable tbl n_inputs (p lsr key_bits) key 0 then acc else key :: acc)
         [] found)
  in
  Array.sort Int.compare keys;
  Array.map
    (fun key -> { Logic.mask = key lsr max_inputs; value = key land ((1 lsl max_inputs) - 1) })
    keys

let minimize ~n_inputs ~on_set ?(dc_set = []) () =
  if n_inputs < 0 || n_inputs > max_inputs then
    Printf.ksprintf invalid_arg "Qm.minimize: %d inputs, outside [0, %d]" n_inputs max_inputs;
  let check m =
    if m < 0 || m >= 1 lsl n_inputs then
      Printf.ksprintf invalid_arg "Qm.minimize: minterm %d outside [0, %d)" m (1 lsl n_inputs)
  in
  List.iter check on_set;
  List.iter check dc_set;
  match on_set with
  | [] -> []
  | _ ->
      let tbl = Bytes.make ((pow3.(n_inputs) + 7) / 8) '\000' in
      List.iter (fun m -> set tbl (cube_of_minterm m)) on_set;
      (* every dc-minterm is checked before any is marked, so a repeated
         one is not taken for an overlap *)
      if List.exists (fun m -> get tbl (cube_of_minterm m)) dc_set then
        invalid_arg "Qm.minimize: on-set and dc-set overlap";
      List.iter (fun m -> set tbl (cube_of_minterm m)) dc_set;
      let prime_arr = primes tbl n_inputs (fill tbl [] (n_inputs - 1) 0 0 0) in
      (* level-by-level QM combines once per dash count; each implicant
         lies in a prime with at least as many dashes *)
      let dashes c = n_inputs - Logic.literals ~n_inputs c in
      Hls_obs.Trace.add "ctrl/qm_iterations"
        (1 + Array.fold_left (fun m c -> max m (dashes c)) 0 prime_arr);
      let on_arr = Array.of_list (List.sort_uniq compare on_set) in
      (* coverage lists: per minterm, the primes covering it *)
      let covering =
        Array.map
          (fun m ->
            let l = ref [] in
            Array.iteri (fun pi c -> if Logic.cube_covers c m then l := pi :: !l) prime_arr;
            !l)
          on_arr
      in
      let chosen = Hashtbl.create (max 16 (2 * Array.length prime_arr)) in
      let covered = Array.make (Array.length on_arr) false in
      let choose pi =
        if not (Hashtbl.mem chosen pi) then begin
          Hashtbl.add chosen pi ();
          Array.iteri
            (fun mi m ->
              if (not covered.(mi)) && Logic.cube_covers prime_arr.(pi) m then
                covered.(mi) <- true)
            on_arr
        end
      in
      (* essential primes: sole cover of some minterm *)
      Array.iteri
        (fun mi cover -> match cover with [ pi ] -> choose pi | _ -> ignore mi)
        covering;
      (* greedy cover of the rest *)
      let rec greedy () =
        let best = ref None in
        Array.iteri
          (fun pi c ->
            if not (Hashtbl.mem chosen pi) then begin
              let gain = ref 0 in
              Array.iteri
                (fun mi m ->
                  if (not covered.(mi)) && Logic.cube_covers c m then incr gain)
                on_arr;
              match !best with
              | Some (g, _) when g >= !gain -> ()
              | _ -> if !gain > 0 then best := Some (!gain, pi)
            end)
          prime_arr;
        match !best with
        | Some (_, pi) ->
            choose pi;
            greedy ()
        | None -> ()
      in
      if Array.exists (fun c -> not c) covered then greedy ();
      if Array.exists (fun c -> not c) covered then
        invalid_arg "Qm.minimize: cover failure (internal)";
      Hashtbl.fold (fun pi () acc -> prime_arr.(pi) :: acc) chosen []
      |> List.sort compare
