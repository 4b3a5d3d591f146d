open Hls_util
open Hls_lang

type t =
  | W_reg of string
  | W_const of int * Ast.ty
  | W_fu_out of int * Ast.ty
  | W_shl of t * int * Ast.ty
  | W_shr of t * int * Ast.ty
  | W_zdetect of t
  | W_mux of t * t * t * Ast.ty
  | W_not of t * Ast.ty

let ty w reg_ty =
  match w with
  | W_reg r -> reg_ty r
  | W_const (_, t) | W_fu_out (_, t) | W_shl (_, _, t) | W_shr (_, _, t)
  | W_mux (_, _, _, t) | W_not (_, t) ->
      t
  | W_zdetect _ -> Ast.Tbool

let rec eval w ~reg ~fu =
  match w with
  | W_reg r -> reg r
  | W_const (v, _) -> v
  | W_fu_out (u, _) -> fu u
  | W_shl (a, k, t) -> Fixedpt.shift_left (Hls_cdfg.Op.fmt_of t) (eval a ~reg ~fu) k
  | W_shr (a, k, t) -> Fixedpt.shift_right (Hls_cdfg.Op.fmt_of t) (eval a ~reg ~fu) k
  | W_zdetect a -> if eval a ~reg ~fu = 0 then 1 else 0
  | W_mux (c, a, b, _) -> if eval c ~reg ~fu <> 0 then eval a ~reg ~fu else eval b ~reg ~fu
  | W_not (a, t) -> (
      match t with
      | Ast.Tbool -> if eval a ~reg ~fu <> 0 then 0 else 1
      | _ -> Fixedpt.wrap (Hls_cdfg.Op.fmt_of t) (lnot (eval a ~reg ~fu)))

let rec depth_delay_ns = function
  | W_reg _ | W_const _ | W_fu_out _ -> 0.0
  | W_shl (a, _, _) | W_shr (a, _, _) ->
      (* constant shifts are wiring: no gate delay *)
      depth_delay_ns a
  | W_zdetect a -> Component.free_op_delay_ns +. depth_delay_ns a
  | W_not (a, _) -> Component.free_op_delay_ns +. depth_delay_ns a
  | W_mux (c, a, b, _) ->
      Component.mux_delay_ns
      +. List.fold_left max 0.0 [ depth_delay_ns c; depth_delay_ns a; depth_delay_ns b ]

let rec to_string = function
  | W_reg r -> r
  | W_const (v, _) -> string_of_int v
  | W_fu_out (u, _) -> Printf.sprintf "fu%d_out" u
  | W_shl (a, k, _) -> Printf.sprintf "(%s << %d)" (to_string a) k
  | W_shr (a, k, _) -> Printf.sprintf "(%s >> %d)" (to_string a) k
  | W_zdetect a -> Printf.sprintf "(%s == 0)" (to_string a)
  | W_mux (c, a, b, _) ->
      Printf.sprintf "(%s ? %s : %s)" (to_string c) (to_string a) (to_string b)
  | W_not (a, _) -> Printf.sprintf "(~%s)" (to_string a)

let rec regs_read_acc w acc =
  match w with
  | W_reg r -> r :: acc
  | W_const _ | W_fu_out _ -> acc
  | W_shl (a, _, _) | W_shr (a, _, _) | W_zdetect a | W_not (a, _) -> regs_read_acc a acc
  | W_mux (c, a, b, _) -> regs_read_acc c (regs_read_acc a (regs_read_acc b acc))

let regs_read w = List.sort_uniq compare (regs_read_acc w [])

let rec fus_read_acc w acc =
  match w with
  | W_fu_out (u, _) -> u :: acc
  | W_reg _ | W_const _ -> acc
  | W_shl (a, _, _) | W_shr (a, _, _) | W_zdetect a | W_not (a, _) -> fus_read_acc a acc
  | W_mux (c, a, b, _) -> fus_read_acc c (fus_read_acc a (fus_read_acc b acc))

let fus_read w = List.sort_uniq compare (fus_read_acc w [])
