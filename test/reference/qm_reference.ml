(* Test-only oracle: the level-by-level Quine–McCluskey that Qm.minimize
   replaced. Prime implicants come from repeatedly combining a set of
   (mask, value) cubes with their one-bit partners until a level is
   empty; the essential-prime and greedy cover is the same code as in
   Qm. The differential property in test_ctrl.ml checks that both give
   the same SOP and the same ctrl/qm_iterations delta. *)

open Hls_ctrl

(* A cube (mask, value) is the int [mask lsl 20 lor value] (at most 20
   inputs): ints compare and hash monomorphically, and their order is
   the (mask, value) pairs' lexicographic one. *)
let cube m v = (m lsl 20) lor v
let mask_of c = c lsr 20
let value_of c = c land 0xFFFFF

module CubeSet = Set.Make (Int)

module IntTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Pair generation is the hot path: a cube (m, v) combines with
   (m, v lxor bit) for each cared bit. Looking the partner up in a set
   makes each level O(cubes × inputs) instead of O(cubes²). *)
let combine_level level =
  let combined = ref CubeSet.empty in
  let used = IntTbl.create (CubeSet.cardinal level * 2) in
  CubeSet.iter
    (fun c ->
      let m = mask_of c and v = value_of c in
      let rec bits mask =
        if mask <> 0 then begin
          let bit = mask land -mask in
          if v land bit = 0 then begin
            let partner = cube m (v lor bit) in
            if CubeSet.mem partner level then begin
              IntTbl.replace used c ();
              IntTbl.replace used partner ();
              let nm = m land lnot bit in
              combined := CubeSet.add (cube nm (v land nm)) !combined
            end
          end;
          bits (mask land lnot bit)
        end
      in
      bits m)
    level;
  let primes =
    CubeSet.filter (fun c -> not (IntTbl.mem used c)) level
  in
  (primes, !combined)

let minimize ~n_inputs ~on_set ?(dc_set = []) () =
  if n_inputs > 20 then invalid_arg "Qm_reference.minimize: too many inputs";
  (* hash the dc-set once: O(on + dc) instead of the O(on × dc)
     List.exists/List.mem scan, which showed up on one-hot controllers
     where both sets are large *)
  if dc_set <> [] then begin
    let dc = Hashtbl.create (2 * List.length dc_set) in
    List.iter (fun m -> Hashtbl.replace dc m ()) dc_set;
    if List.exists (fun m -> Hashtbl.mem dc m) on_set then
      invalid_arg "Qm_reference.minimize: on-set and dc-set overlap"
  end;
  let full_mask = (1 lsl n_inputs) - 1 in
  match on_set with
  | [] -> []
  | _ ->
      let initial =
        List.fold_left
          (fun acc m -> CubeSet.add (cube full_mask (m land full_mask)) acc)
          CubeSet.empty (on_set @ dc_set)
      in
      let primes = ref CubeSet.empty in
      let rec loop level =
        if not (CubeSet.is_empty level) then begin
          Hls_obs.Trace.incr "ctrl/qm_iterations";
          let level_primes, combined = combine_level level in
          primes := CubeSet.union !primes level_primes;
          loop combined
        end
      in
      loop initial;
      let prime_arr =
        Array.of_list
          (List.map
             (fun c -> { Logic.mask = mask_of c; value = value_of c })
             (CubeSet.elements !primes))
      in
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
        invalid_arg "Qm_reference.minimize: cover failure (internal)";
      Hashtbl.fold (fun pi () acc -> prime_arr.(pi) :: acc) chosen []
      |> List.sort compare
