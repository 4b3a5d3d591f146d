(* The bench driver: [bench <section> [flags]] measures one section and
   writes BENCH_<section>.json; [bench --check FILE] re-runs a written
   file's section and compares. See harness.ml. *)

let () =
  Harness.main
    [ Section_dse.section;
      Section_kernels.section;
      Section_analysis.section;
      Section_rewrite.section;
      Section_refine.section ]
