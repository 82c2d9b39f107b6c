let () =
  Alcotest.run "ocube"
    [
      ("sim", Test_sim.suite);
      ("sim.engine", Test_engine.suite);
      ("stats", Test_stats.suite);
      ("topology.opencube", Test_opencube.suite);
      ("topology.trees", Test_static_tree.suite);
      ("network", Test_network.suite);
      ("algo", Test_algo.suite);
      ("walkthrough", Test_walkthrough.suite);
      ("fault", Test_fault.suite);
      ("baselines", Test_baselines.suite);
      ("generic", Test_generic.suite);
      ("workload", Test_workload.suite);
      (* The process-cluster suites fork; on OCaml 5 Unix.fork is
         forbidden once any domain has ever been spawned, so they must
         run before the domain-pool suites (harness, model, par, fuzz). *)
      ("wire", Test_wire.suite);
      ("proc", Test_proc.suite);
      ("harness", Test_harness.suite);
      ("model", Test_model.suite);
      ("model.symmetry", Test_symmetry.suite);
      ("direct-api", Test_direct_api.suite);
      ("fdeque", Test_fdeque.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("fuzz", Test_fuzz.suite);
      ("lint", Test_lint.suite);
      ("perf-smoke", Test_perf_smoke.suite);
    ]
