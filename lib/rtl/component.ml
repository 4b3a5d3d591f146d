open Hls_cdfg

(* Operation coverage is plain data (not a predicate closure) so that
   components — and everything containing them, like a finished design —
   can be marshalled into the persistent design cache. *)
type coverage = Add_sub | Full_alu | Mul_only | Div_mod | Shifts

type t = {
  cname : string;
  cls : Op.fu_class;
  covers : coverage;
  area_base : int;
  area_per_bit : int;
  delay_ns : float;
}

let add_sub_ops (op : Op.t) =
  match op with
  | Op.Add | Op.Sub | Op.Incr | Op.Decr | Op.Neg | Op.Cmp _ -> true
  | Op.Write _ -> true (* pass-through register move *)
  | _ -> false

let alu_ops (op : Op.t) =
  add_sub_ops op || match op with Op.And | Op.Or | Op.Xor | Op.Not -> true | _ -> false

let executes c (op : Op.t) =
  match c.covers with
  | Add_sub -> add_sub_ops op
  | Full_alu -> alu_ops op
  | Mul_only -> op = Op.Mul
  | Div_mod -> ( match op with Op.Div | Op.Mod -> true | _ -> false)
  | Shifts -> ( match op with Op.Shl | Op.Shr -> true | _ -> false)

let library =
  [
    {
      cname = "add_sub";
      cls = Op.C_alu;
      covers = Add_sub;
      area_base = 20;
      area_per_bit = 10;
      delay_ns = 18.0;
    };
    {
      cname = "alu";
      cls = Op.C_alu;
      covers = Full_alu;
      area_base = 40;
      area_per_bit = 14;
      delay_ns = 20.0;
    };
    {
      cname = "mult";
      cls = Op.C_mul;
      covers = Mul_only;
      area_base = 100;
      area_per_bit = 75;
      delay_ns = 60.0;
    };
    {
      cname = "divider";
      cls = Op.C_div;
      covers = Div_mod;
      area_base = 150;
      area_per_bit = 95;
      delay_ns = 90.0;
    };
    {
      cname = "barrel_shifter";
      cls = Op.C_shift;
      covers = Shifts;
      area_base = 30;
      area_per_bit = 18;
      delay_ns = 25.0;
    };
  ]

let find name = List.find (fun c -> c.cname = name) library

let area c ~width = c.area_base + (c.area_per_bit * width)

(* cheapest (fastest) component of the class; 0 when it has none *)
let min_area cls ~width =
  let a =
    List.fold_left
      (fun acc c -> if c.cls = cls then min acc (area c ~width) else acc)
      max_int library
  in
  if a = max_int then 0 else a

let min_delay_ns cls =
  let d =
    List.fold_left (fun acc c -> if c.cls = cls then min acc c.delay_ns else acc) infinity library
  in
  if d = infinity then 0.0 else d

let bind ~cls ~ops =
  let candidates =
    List.filter
      (fun c -> c.cls = cls && List.for_all (fun op -> executes c op) ops)
      library
  in
  match
    List.sort (fun a b -> compare (area a ~width:32) (area b ~width:32)) candidates
  with
  | c :: _ -> c
  | [] -> raise Not_found

let register_area ~width = 8 * width

let mux_area ~inputs ~width = max 0 (inputs - 1) * 3 * width

let register_delay_ns = 2.5
let mux_delay_ns = 1.5
let free_op_delay_ns = 1.0
