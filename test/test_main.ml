let () =
  Alcotest.run "alohadb"
    [ ("sim", Test_sim.suite);
      ("net", Test_net.suite);
      ("clocksync", Test_clocksync.suite);
      ("mvstore", Test_mvstore.suite);
      ("functor_cc", Test_functor_cc.suite);
      ("epoch", Test_epoch.suite);
      ("cores", Test_cores.suite);
      ("alohadb", Test_alohadb.suite);
      ("alohadb-extra", Test_alohadb_extra.suite);
      ("calvin", Test_calvin.suite);
      ("serializability", Test_serializability.suite);
      ("workload", Test_workload.suite);
      ("harness", Test_harness.suite);
      ("durability", Test_durability.suite);
      ("twopl", Test_twopl.suite);
      ("cross-engine", Test_cross_engine.suite);
      ("gc", Test_gc.suite);
      ("components", Test_components.suite);
      ("runtime", Test_runtime.suite);
      ("obs", Test_obs.suite);
      ("timeline", Test_timeline.suite);
      ("chaos", Test_chaos.suite);
      ("replication", Test_replication.suite);
      ("fastpath", Test_fastpath.suite) ]
