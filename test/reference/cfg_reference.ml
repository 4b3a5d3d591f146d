(* Test and bench oracle: the CDFG interpreter that Hls_sim.Cfg_sim's
   staged simulator replaced. It keeps variables in a string-keyed hash
   table, rebuilds each block's value array per execution and evaluates
   every node through Op.eval on an argument list. Raises
   Hls_sim.Cfg_sim.Sim_error with the same messages. *)

open Hls_cdfg

let error msg = raise (Hls_sim.Cfg_sim.Sim_error msg)

let run ?(fuel = 1_000_000) cfg ~inputs =
  let store : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (v, raw) -> Hashtbl.replace store v raw) inputs;
  let read_var v = match Hashtbl.find_opt store v with Some x -> x | None -> 0 in
  let fuel = ref fuel in
  let rec exec_block bid =
    decr fuel;
    if !fuel < 0 then error "out of fuel (possible non-terminating loop)";
    let g = Cfg.dfg cfg bid in
    let n = Dfg.n_nodes g in
    let values = Array.make n 0 in
    let pending_writes = ref [] in
    Dfg.iter
      (fun id node ->
        let argv = List.map (fun a -> values.(a)) node.Dfg.args in
        match node.Dfg.op with
        | Op.Read v -> values.(id) <- read_var v
        | Op.Write v ->
            (match argv with
            | [ x ] -> pending_writes := (v, x) :: !pending_writes
            | _ -> error "malformed write");
            values.(id) <- (match argv with x :: _ -> x | [] -> 0)
        | op -> (
            try values.(id) <- Op.eval node.Dfg.ty op argv
            with Division_by_zero -> error "division by zero"))
      g;
    (* commit writes at block exit; later writes win *)
    List.iter (fun (v, x) -> Hashtbl.replace store v x) (List.rev !pending_writes);
    match Cfg.term cfg bid with
    | Cfg.Goto next -> exec_block next
    | Cfg.Branch (c, bt, bf) -> exec_block (if values.(c) <> 0 then bt else bf)
    | Cfg.Halt -> ()
  in
  exec_block (Cfg.entry cfg);
  Hashtbl.fold (fun v x acc -> (v, x) :: acc) store [] |> List.sort compare
