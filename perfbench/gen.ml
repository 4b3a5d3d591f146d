(* Seeded input generator: every program the benchmark feeds the
   synthesis system is BSL source text drawn here from the workload
   seed. Three program classes:

   - FIR-N: an N-tap straight-line FIR filter, one block of N constant
     multiplications and N-1 additions;
   - biquad-K: K cascaded direct-form-II biquad sections written with a
     [proc], so inline expansion runs before the flat block reaches the
     scheduler;
   - branchy: integer control-dominated code with if-diamonds and short
     counted loops, every block small enough (at most 12 operations) for
     the exact schedulers to stay exact.

   The workloads pick sizes in fixed strata and use [jitter] for a small
   seeded offset inside each; the seed draws every coefficient, operator
   and operand. Two seeds therefore give different programs of the same
   size mix, so run-to-run figures compare like with like. *)

type program = { name : string; source : string }

let rng_of seed salt = Random.State.make [| 0x5eed; seed; salt |]

(* Magnitude in [0.0101, 0.9900] at four decimals: never a power of two
   that strength reduction would turn into a shift wholesale, never
   zero. *)
let coeff rng =
  let rec draw () =
    let v = 101 + Random.State.int rng 9800 in
    if List.mem v [ 1250; 2500; 5000; 625 ] then draw () else v
  in
  Printf.sprintf "0.%04d" (draw ())

let names prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix i)

(* Jitter [base] inside its stratum of width [step]. *)
let jitter rng ~base ~step = base + Random.State.int rng (max 1 step)

let fir rng ~taps =
  let xs = names "x" taps in
  let terms =
    List.mapi
      (fun i x ->
        let c = coeff rng in
        if i = 0 then Printf.sprintf "%s * %s" c x
        else Printf.sprintf "%s %s * %s" (if Random.State.bool rng then "+" else "-") c x)
      xs
  in
  let name = Printf.sprintf "fir%d" taps in
  let source =
    Printf.sprintf
      "module %s(input %s: fix<8,24>;\n  output y: fix<8,24>);\nbegin\n  y := %s;\nend\n"
      name (String.concat ", " xs)
      (String.concat "\n     " terms)
  in
  { name; source }

let biquad rng ~sections =
  let ins = List.concat_map (fun k -> [ Printf.sprintf "s%d1_in" k; Printf.sprintf "s%d2_in" k ])
      (List.init sections Fun.id)
  in
  let outs =
    List.concat_map (fun k -> [ Printf.sprintf "s%d1_out" k; Printf.sprintf "s%d2_out" k ])
      (List.init sections Fun.id)
  in
  let stage_out k = if k = sections - 1 then "y" else Printf.sprintf "y%d" k in
  let stage_in k = if k = 0 then "x" else Printf.sprintf "y%d" (k - 1) in
  let calls =
    List.init sections (fun k ->
        Printf.sprintf "  call section(%s, s%d1_in, s%d2_in, %s, %s, %s, %s, %s, s%d1_out, s%d2_out);"
          (stage_in k) k k (coeff rng) (coeff rng) (coeff rng) (coeff rng) (stage_out k) k k)
  in
  let locals =
    if sections <= 1 then ""
    else
      Printf.sprintf "var %s: fix<8,24>;\n"
        (String.concat ", " (List.init (sections - 1) (Printf.sprintf "y%d")))
  in
  let name = Printf.sprintf "biquad%d" sections in
  let source =
    String.concat ""
      [
        Printf.sprintf "module %s(input x, %s: fix<8,24>;\n  output y, %s: fix<8,24>);\n" name
          (String.concat ", " ins) (String.concat ", " outs);
        "proc section(input inp, s1, s2, a1, a2, b1, b2: fix<8,24>;\n\
        \             output outp, s1_next, s2_next: fix<8,24>);\n\
         var t: fix<8,24>;\n\
         begin\n\
        \  t := inp - a1 * s1 - a2 * s2;\n\
        \  outp := t + b1 * s1 + b2 * s2;\n\
        \  s2_next := s1;\n\
        \  s1_next := t;\n\
         end;\n";
        locals;
        "begin\n";
        String.concat "\n" calls;
        "\nend\n";
      ]
  in
  { name; source }

(* ---- branchy control-dominated programs ---- *)

let vars = [| "p"; "q"; "r"; "s" |]
let inputs = [| "a"; "b"; "c"; "d" |]
let alu_ops = [| "+"; "-"; "xor"; "and" |]

(* The k-th statement of a program writes variable k mod 4 from the two
   variables after it and an input, always through the same tree shape:
   [v := (x op y) op' in]. The seed draws the operators, the input and
   the compare relations, never the dependence structure, so a shape's
   schedules, FSM state counts and controller inputs - and with them its
   cost - are the same on every seed. *)
let statement rng ~indent ~k ~second =
  Printf.sprintf "%s%s := (%s %s %s) %s %s;" indent
    vars.(k mod 4)
    vars.((k + 1) mod 4)
    alu_ops.(Random.State.int rng 4)
    vars.((k + 2) mod 4)
    second
    inputs.(Random.State.int rng 4)

(* [diamonds] if-diamonds and [loops] counted loops, interleaved in a
   seeded order, each preceded by one straight-line statement.
   Straight-line statements end in a multiplication, arms and loop
   bodies in an addition or subtraction; every block stays within 12
   operations. *)
let branchy rng ~diamonds ~loops ~idx =
  let constructs =
    List.init diamonds (fun _ -> `If) @ List.init loops (fun _ -> `Loop)
    |> List.map (fun c -> (Random.State.bits rng, c))
    |> List.sort compare |> List.map snd
  in
  let k = ref 0 in
  let stmt indent second =
    incr k;
    [ statement rng ~indent ~k:!k ~second ]
  in
  let seg () = stmt "  " "*" in
  let arm () = stmt "    " (if Random.State.bool rng then "+" else "-") in
  let cond () =
    Printf.sprintf "(%s %s %s) %s %s"
      vars.(!k mod 4)
      alu_ops.(Random.State.int rng 4)
      vars.((!k + 3) mod 4)
      [| "<"; ">"; "="; "<>" |].(Random.State.int rng 4)
      inputs.(Random.State.int rng 4)
  in
  let body =
    List.concat_map
      (fun c ->
        let s = seg () in
        let construct =
          match c with
          | `If ->
              let c = cond () in
              [ Printf.sprintf "  if %s then" c ] @ arm () @ [ "  else" ] @ arm () @ [ "  end;" ]
          | `Loop ->
              let hi = 1 + Random.State.int rng 3 in
              [ Printf.sprintf "  for k := 0 to %d do" hi ] @ arm () @ [ "  end;" ]
        in
        s @ construct)
      constructs
  in
  let name = Printf.sprintf "branchy%d_%d_%d" diamonds loops idx in
  let source =
    String.concat "\n"
      ([
         Printf.sprintf "module %s(input a, b, c, d: int<16>; output o1, o2: int<16>);" name;
         "var p, q, r, s: int<16>;";
         "var k: int<8>;";
         "begin";
         "  p := a;";
         "  q := b;";
         "  r := c - d;";
         "  s := a xor c;";
       ]
      @ body
      @ [ "  o1 := p + q;"; "  o2 := r - s;"; "end"; "" ])
  in
  { name; source }
