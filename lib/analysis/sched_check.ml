open Hls_cdfg
open Hls_sched
open Diagnostic

let rules =
  [
    ("SCHED001", "operation starts no later than an operand's producing step");
    ("SCHED002", "control step exceeds the functional-unit limits");
    ("SCHED003", "intermediate control step is empty");
  ]

let check_block ?(limits = Limits.Unlimited) ~bid sched =
  let g = Schedule.dfg sched in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  Dfg.iter
    (fun id node ->
      if Dfg.occupies_step g id then begin
        let s = Schedule.step_of sched id in
        List.iter
          (fun a ->
            let p = Schedule.producer_step sched a in
            if s < p + 1 then
              add
                (error Sched ~code:"SCHED001" (Node (bid, id))
                   "scheduled in step %d but operand %%%d is produced in step %d" s a p))
          node.Dfg.args
      end)
    g;
  let n = Schedule.n_steps sched in
  let ops = Schedule.by_step sched in
  let latches = Array.make (n + 1) false in
  List.iter (fun (_, wnid) -> latches.(Schedule.write_step sched wnid) <- true) (Dfg.writes g);
  let occ = Schedule.occupancy sched in
  for s = 1 to n do
    if not (Limits.step_within limits occ ~step:s) then
      add
        (error Sched ~code:"SCHED002" (Step (bid, s))
           "resource usage {%s} exceeds limits %s"
           (String.concat ", "
              (List.map
                 (fun (cls, k) -> Printf.sprintf "%s:%d" (Op.fu_class_to_string cls) k)
                 (Limits.step_counts occ ~step:s)))
           (Limits.to_string limits));
    if s < n && ops.(s) = [] && not latches.(s) then
      add
        (warning Sched ~code:"SCHED003" (Step (bid, s))
           "step holds no operation and latches no value")
  done;
  List.rev !ds

let check ?(limits = Limits.Unlimited) cs =
  List.concat_map
    (fun bid -> check_block ~limits ~bid (Cfg_sched.block_schedule cs bid))
    (Cfg.block_ids (Cfg_sched.cfg cs))
