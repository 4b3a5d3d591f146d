

let schedule_table (d : Flow.design) =
  let buf = Buffer.create 512 in
  let freq = Hls_sched.Cfg_sched.frequencies d.Flow.sched in
  Hls_cdfg.Cfg.iter
    (fun bid b ->
      let sched = Hls_sched.Cfg_sched.block_schedule d.Flow.sched bid in
      Buffer.add_string buf
        (Printf.sprintf "%s: %d step(s), executes x%d\n" b.Hls_cdfg.Cfg.label
           (Hls_sched.Schedule.n_steps sched)
           freq.(bid));
      Buffer.add_string buf (Format.asprintf "%a" Hls_sched.Schedule.pp sched))
    d.Flow.cfg;
  Buffer.contents buf

let summary (d : Flow.design) =
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  out "=== synthesis report: %s ===\n" d.Flow.prog.Hls_lang.Typed.tname;
  out "options: %s\n"
    (String.concat ", "
       (List.map (fun (name, v) -> name ^ "=" ^ v) (Flow.Knob.attrs d.Flow.options)));
  let n_ops =
    List.fold_left
      (fun acc bid ->
        acc + List.length (Hls_cdfg.Dfg.compute_ops (Hls_cdfg.Cfg.dfg d.Flow.cfg bid)))
      0
      (Hls_cdfg.Cfg.block_ids d.Flow.cfg)
  in
  out "CDFG: %d blocks, %d step-occupying operations\n"
    (Hls_cdfg.Cfg.n_blocks d.Flow.cfg)
    n_ops;
  out "schedule: %d compute steps (weighted), %d FSM states\n"
    (Hls_sched.Cfg_sched.compute_steps d.Flow.sched)
    (Hls_sched.Cfg_sched.total_states d.Flow.sched);
  out "\n-- schedule --\n%s" (schedule_table d);
  out "\n-- functional units --\n%s"
    (Format.asprintf "%a" Hls_alloc.Fu_alloc.pp d.Flow.fu);
  Array.iteri
    (fun i (f : Hls_rtl.Datapath.fu_def) ->
      out "FU%d bound to %s (%d bits, %d gates)\n" i
        f.Hls_rtl.Datapath.comp.Hls_rtl.Component.cname f.Hls_rtl.Datapath.fwidth
        (Hls_rtl.Component.area f.Hls_rtl.Datapath.comp ~width:f.Hls_rtl.Datapath.fwidth))
    d.Flow.datapath.Hls_rtl.Datapath.fus;
  out "\n-- registers --\n%s" (Format.asprintf "%a" Hls_alloc.Reg_alloc.pp d.Flow.regs);
  out "\n-- interconnect --\n%s"
    (Format.asprintf "%a" Hls_alloc.Interconnect.pp_summary d.Flow.transfers);
  out "\n-- controller --\n";
  out "%d states, %d state bits, %d condition inputs\n"
    (Hls_ctrl.Fsm.n_states d.Flow.datapath.Hls_rtl.Datapath.fsm)
    (Hls_ctrl.Ctrl_synth.n_state_bits d.Flow.controller)
    (List.length (Hls_ctrl.Ctrl_synth.cond_signals d.Flow.controller));
  out "next-state logic: %d literals minimized (%d direct), %d PLA rows\n"
    (Hls_ctrl.Ctrl_synth.literal_cost d.Flow.controller)
    (Hls_ctrl.Ctrl_synth.direct_literal_cost d.Flow.controller)
    (Hls_ctrl.Ctrl_synth.pla_rows d.Flow.controller);
  out "\n-- estimate --\n%s" (Format.asprintf "%a" Hls_rtl.Estimate.pp d.Flow.estimate);
  Buffer.contents buf

let print d = print_string (summary d)
