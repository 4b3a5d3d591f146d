let max_inputs = 12

(* A truth table holds one bit per minterm, 32 to an int word: minterm x
   is bit [x land 31] of word [x lsr 5]. *)
let log_word = 5

type table = { n : int; w : int array }

let check_inputs who n =
  if n < 0 || n > max_inputs then
    Printf.ksprintf invalid_arg "%s: %d inputs, outside [0, %d]" who n max_inputs

let check_minterm n x =
  if x < 0 || x >= 1 lsl n then
    Printf.ksprintf invalid_arg "Qm.minimize: minterm %d outside [0, %d)" x (1 lsl n)

let table ~n_inputs =
  check_inputs "Qm.table" n_inputs;
  { n = n_inputs; w = Array.make (1 lsl max 0 (n_inputs - log_word)) 0 }

let add t x =
  check_minterm t.n x;
  t.w.(x lsr log_word) <- t.w.(x lsr log_word) lor (1 lsl (x land 31))

let complement t =
  let valid = if t.n >= log_word then 0xFFFF_FFFF else (1 lsl (1 lsl t.n)) - 1 in
  { t with w = Array.map (fun x -> lnot x land valid) t.w }

let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  ((x * 0x0101_0101) lsr 24) land 0xFF

(* low_half.(j): the positions of a word whose bit j is clear *)
let low_half = [| 0x5555_5555; 0x3333_3333; 0x0F0F_0F0F; 0x00FF_00FF; 0x0000_FFFF |]

(* word [k] of [w] reflected across input [j]: bit x holds w(x lxor 2^j) *)
let across w k j =
  if j < log_word then
    let s = 1 lsl j and m = low_half.(j) in
    let x = w.(k) in
    ((x lsr s) land m) lor ((x land m) lsl s)
  else w.(k lxor (1 lsl (j - log_word)))

(* Writes W_{D+i} of [w] = W_D into [child]: bit x (input i clear)
   holds w(x) ∧ w(x + 2^i). Whether any bit is set. *)
let dash w i child =
  let any = ref 0 in
  if i < log_word then begin
    let s = 1 lsl i and m = low_half.(i) in
    for k = 0 to Array.length w - 1 do
      let x = w.(k) in
      let c = x land (x lsr s) land m in
      child.(k) <- c;
      any := !any lor c
    done
  end
  else begin
    let t = 1 lsl (i - log_word) in
    for k = 0 to Array.length w - 1 do
      let c = if k land t = 0 then w.(k) land w.(k lor t) else 0 in
      child.(k) <- c;
      any := !any lor c
    done
  end;
  !any <> 0

(* The primes of [f], as sort keys — literal mask above [max_inputs]
   value bits — in ascending (mask, value) order, and the most dashes
   any of them has. W_D, the implicants with dash set D stored at their
   value (D's bits clear), is walked depth-first, one buffer per depth,
   adding dashes in increasing input order and pruning at an empty W;
   W_D's primes are its bits with no implicant neighbour across any
   non-dash input. *)
let primes n f =
  let levels = Array.init (n + 1) (fun d -> if d = 0 then f else Array.make (Array.length f) 0) in
  let found = ref [] and most_dashes = ref 0 in
  let rec visit d last depth =
    let w = levels.(depth) in
    most_dashes := max !most_dashes depth;
    let key = (((1 lsl n) - 1) land lnot d) lsl max_inputs in
    for k = 0 to Array.length w - 1 do
      if w.(k) <> 0 then begin
        let raisable = ref 0 in
        for j = 0 to n - 1 do
          if d land (1 lsl j) = 0 then raisable := !raisable lor across w k j
        done;
        let p = ref (w.(k) land lnot !raisable) in
        while !p <> 0 do
          let low = !p land (- !p) in
          found := (key lor (k lsl log_word) lor popcount32 (low - 1)) :: !found;
          p := !p lxor low
        done
      end
    done;
    for i = last + 1 to n - 1 do
      if dash w i levels.(depth + 1) then visit (d lor (1 lsl i)) i (depth + 1)
    done
  in
  visit 0 (-1) 0;
  let keys = Array.of_list !found in
  Array.sort Int.compare keys;
  (keys, !most_dashes)

let cube_of_key key = { Logic.mask = key lsr max_inputs; value = key land ((1 lsl max_inputs) - 1) }

(* Essential primes, then greedy: the lowest-index prime with the
   strictly largest gain. Each prime's cover is its on-minterms over the
   words holding any, [active]. *)
let cover on keys =
  let active =
    Array.of_list (List.filter (fun k -> on.(k) <> 0) (List.init (Array.length on) Fun.id))
  in
  let covers =
    Array.map
      (fun key ->
        let { Logic.mask; value } = cube_of_key key in
        let pattern = ref (1 lsl (value land 31)) in
        for j = 0 to log_word - 1 do
          if mask land (1 lsl j) = 0 then pattern := !pattern lor (!pattern lsl (1 lsl j))
        done;
        let hi_mask = mask lsr log_word and hi_value = value lsr log_word in
        Array.map
          (fun k -> if k land hi_mask = hi_value then !pattern land on.(k) else 0)
          active)
      keys
  in
  let n_active = Array.length active in
  let once = Array.make n_active 0 and twice = Array.make n_active 0 in
  Array.iter
    (fun c ->
      for a = 0 to n_active - 1 do
        twice.(a) <- twice.(a) lor (once.(a) land c.(a));
        once.(a) <- once.(a) lor c.(a)
      done)
    covers;
  let chosen = Array.make (Array.length keys) false in
  let covered = Array.make n_active 0 in
  let choose pi =
    chosen.(pi) <- true;
    Array.iteri (fun a c -> covered.(a) <- covered.(a) lor c) covers.(pi)
  in
  (* essential primes: sole cover of some on-minterm *)
  let essential = Array.map2 (fun o t -> o land lnot t) once twice in
  Array.iteri
    (fun pi c -> if Array.exists2 (fun x e -> x land e <> 0) c essential then choose pi)
    covers;
  (* Gains only fall as the cover grows, so a queued gain bounds its
     prime's. Popping the largest bound, lowest index first, and taking
     it when its gain is still current picks exactly the lowest-index
     prime of strictly largest gain; a stale one is queued again. *)
  let gain c =
    let g = ref 0 in
    for a = 0 to n_active - 1 do
      g := !g + popcount32 (c.(a) land lnot covered.(a))
    done;
    !g
  in
  let key pi g = (((1 lsl max_inputs) - g) lsl 20) lor pi in
  let queue = Hls_util.Pqueue.create ~cmp:Int.compare in
  Array.iteri
    (fun pi c ->
      if not chosen.(pi) then
        let g = gain c in
        if g > 0 then Hls_util.Pqueue.push queue (key pi g))
    covers;
  let rec greedy () =
    match Hls_util.Pqueue.pop queue with
    | None -> ()
    | Some k ->
        let pi = k land ((1 lsl 20) - 1) in
        let g = gain covers.(pi) in
        if g = (1 lsl max_inputs) - (k lsr 20) then choose pi
        else if g > 0 then Hls_util.Pqueue.push queue (key pi g);
        greedy ()
  in
  greedy ();
  if Array.exists2 (fun c k -> c <> on.(k)) covered active then
    invalid_arg "Qm.minimize: cover failure (internal)";
  let sop = ref [] in
  for pi = Array.length keys - 1 downto 0 do
    if chosen.(pi) then sop := cube_of_key keys.(pi) :: !sop
  done;
  !sop

let minimize_table ~on ~dc =
  if on.n <> dc.n then invalid_arg "Qm.minimize_table: tables of different input counts";
  if Array.exists2 (fun a b -> a land b <> 0) on.w dc.w then
    invalid_arg "Qm.minimize: on-set and dc-set overlap";
  if Array.for_all (( = ) 0) on.w then []
  else begin
    let keys, most_dashes = primes on.n (Array.map2 ( lor ) on.w dc.w) in
    (* level-by-level QM combines once per dash count; each implicant
       lies in a prime with at least as many dashes *)
    Hls_obs.Trace.add "ctrl/qm_iterations" (1 + most_dashes);
    cover on.w keys
  end

let minimize ~n_inputs ~on_set ?(dc_set = []) () =
  check_inputs "Qm.minimize" n_inputs;
  let of_list ms =
    let t = table ~n_inputs in
    List.iter (add t) ms;
    t
  in
  minimize_table ~on:(of_list on_set) ~dc:(of_list dc_set)
