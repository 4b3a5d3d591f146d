let max_inputs = 12

(* Implicant table: one bit per cube, where a cube's index holds one
   base-3 digit per input (0 or 1 = literal, 2 = don't-care), so a dash
   of weight w = 3^i has the children c - 2w and c - w. *)
let get tbl c = Char.code (Bytes.get tbl (c lsr 3)) land (1 lsl (c land 7)) <> 0

let set tbl c =
  let b = c lsr 3 in
  Bytes.set tbl b (Char.chr (Char.code (Bytes.get tbl b) lor (1 lsl (c land 7))))

let rec pow3 n = if n = 0 then 1 else 3 * pow3 (n - 1)

let cube_of_minterm m =
  let rec go m w c = if m = 0 then c else go (m lsr 1) (3 * w) (c + (w * (m land 1))) in
  go m 1 0

(* Decides the dashed cubes under prefix [c], whose digits below weight
   [w] are free, in increasing index order, so that a cube's children at
   its lowest dash (of weight [low]; 0 for none) come first. Returns
   whether the subtree holds an implicant: both cofactors at any dash of
   an implicant are implicants, so a dash branch whose literal branches
   do not both hold one is skipped. *)
let rec fill tbl w c low =
  if w = 0 then
    get tbl c || (low > 0 && get tbl (c - (2 * low)) && get tbl (c - low) && (set tbl c; true))
  else begin
    let zero = fill tbl (w / 3) c low in
    let one = fill tbl (w / 3) (c + w) low in
    if zero && one then ignore (fill tbl (w / 3) (c + (2 * w)) w);
    zero || one
  end

(* Primes in ascending (mask, value) order. An implicant is prime iff
   raising any one of its literals to a dash leaves the table. *)
let primes tbl n_inputs =
  let acc = ref [] in
  for c = 0 to pow3 n_inputs - 1 do
    if get tbl c then begin
      let mask = ref 0 and value = ref 0 and prime = ref true and w = ref 1 in
      for i = 0 to n_inputs - 1 do
        let d = c / !w mod 3 in
        if d < 2 then begin
          mask := !mask lor (1 lsl i);
          value := !value lor (d lsl i);
          if get tbl (c + ((2 - d) * !w)) then prime := false
        end;
        w := 3 * !w
      done;
      if !prime then acc := { Logic.mask = !mask; value = !value } :: !acc
    end
  done;
  Array.of_list (List.sort compare !acc)

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
      let tbl = Bytes.make ((pow3 n_inputs + 7) / 8) '\000' in
      List.iter (fun m -> set tbl (cube_of_minterm m)) on_set;
      (* every dc-minterm is checked before any is marked, so a repeated
         one is not taken for an overlap *)
      if List.exists (fun m -> get tbl (cube_of_minterm m)) dc_set then
        invalid_arg "Qm.minimize: on-set and dc-set overlap";
      List.iter (fun m -> set tbl (cube_of_minterm m)) dc_set;
      ignore (fill tbl (pow3 n_inputs / 3) 0 0);
      let prime_arr = primes tbl n_inputs in
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
