let () =
  Alcotest.run "resbm"
    [
      ("graphlib", Test_graphlib.suite);
      ("obs", Test_obs.suite);
      ("bench-diff", Test_bench_diff.suite);
      ("trace", Test_trace.suite);
      ("ckks", Test_ckks.suite);
      ("exact-ckks", Test_exact_ckks.suite);
      ("ir", Test_ir.suite);
      ("region", Test_region.suite);
      ("placement", Test_placement.suite);
      ("btsmgr", Test_btsmgr.suite);
      ("compile", Test_compile.suite);
      ("passes", Test_passes.suite);
      ("nn", Test_nn.suite);
      ("tooling", Test_tooling.suite);
      ("analysis", Test_analysis.suite);
      ("certify", Test_certify.suite);
      ("frontend", Test_frontend.suite);
      ("waterline", Test_waterline.suite);
      ("coverage", Test_coverage.suite);
      ("resilience", Test_resilience.suite);
      ("serving", Test_serving.suite);
      ("parallel-cache", Test_parallel_cache.suite);
      ("flight", Test_flight.suite);
      ("explain", Test_explain.suite);
    ]
