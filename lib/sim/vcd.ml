open Hls_rtl

(* VCD identifier codes: printable ASCII from '!' *)
let id_of i =
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let to_binary ~width v =
  let buf = Bytes.make width '0' in
  for bit = 0 to width - 1 do
    if (v lsr bit) land 1 = 1 then Bytes.set buf (width - 1 - bit) '1'
  done;
  Bytes.to_string buf

let run ?(module_name = "design") dp ~inputs =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let regs = dp.Datapath.regs in
  let state_width =
    let n = Hls_ctrl.Fsm.n_states dp.Datapath.fsm in
    let rec bits b = if 1 lsl b >= n then b else bits (b + 1) in
    max 1 (bits 1)
  in
  out "$date generated by hlsc $end\n";
  out "$version hls rtl simulator $end\n";
  out "$timescale 1 ns $end\n";
  out "$scope module %s $end\n" module_name;
  out "$var wire %d %s state $end\n" state_width (id_of 0);
  Array.iteri
    (fun i (r : Datapath.reg_def) ->
      out "$var wire %d %s %s $end\n" r.Datapath.rwidth (id_of (i + 1)) r.Datapath.rname)
    regs;
  out "$upscope $end\n$enddefinitions $end\n";
  (* register [i] (its position in [regs], which is also its position
     in every snapshot) has code [i + 1]; a change is printed masked to
     the register's width *)
  let mask width v = v land ((1 lsl width) - 1) in
  let last = Array.make (Array.length regs) 0 in
  let dump_reg i v =
    let width = regs.(i).Datapath.rwidth in
    out "b%s %s\n" (to_binary ~width (mask width v)) (id_of (i + 1));
    last.(i) <- v
  in
  (* initial values at time 0 *)
  let last_state = ref (Hls_ctrl.Fsm.entry dp.Datapath.fsm) in
  out "#0\n$dumpvars\n";
  out "b%s %s\n" (to_binary ~width:state_width !last_state) (id_of 0);
  Array.iteri
    (fun i (r : Datapath.reg_def) ->
      dump_reg i (match List.assoc_opt r.Datapath.rname inputs with Some x -> x | None -> 0))
    regs;
  out "$end\n";
  let on_cycle ~cycle ~state ~regs:snapshot =
    out "#%d\n" cycle;
    if !last_state <> state then begin
      out "b%s %s\n" (to_binary ~width:state_width state) (id_of 0);
      last_state := state
    end;
    List.iteri (fun i (_, v) -> if last.(i) <> v then dump_reg i v) snapshot
  in
  let result = Rtl_sim.run ~on_cycle dp ~inputs in
  out "#%d\n" (result.Rtl_sim.cycles + 1);
  (Buffer.contents buf, result)

let dump ?module_name dp ~inputs = fst (run ?module_name dp ~inputs)

let dump_to_file ?module_name dp ~inputs ~path =
  let text, result = run ?module_name dp ~inputs in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  result
