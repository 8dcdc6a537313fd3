let () =
  Alcotest.run "checkpoint-workflows"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("distributions", Test_dist.suite);
      ("dag", Test_dag.suite);
      ("failures", Test_failures.suite);
      ("simulator", Test_sim.suite);
      ("parallel", Test_parallel.suite);
      ("expected-time", Test_expected_time.suite);
      ("approximations", Test_approximations.suite);
      ("chain", Test_chain.suite);
      ("segment-cost", Test_segment_cost.suite);
      ("brute-force", Test_brute_force.suite);
      ("independent", Test_independent.suite);
      ("reduction", Test_reduction.suite);
      ("moldable", Test_moldable.suite);
      ("dag-sched", Test_dag_sched.suite);
      ("nonmemoryless", Test_nonmemoryless.suite);
      ("specs", Test_specs.suite);
      ("btw", Test_btw.suite);
      ("superposition", Test_superposition.suite);
      ("divisible", Test_divisible.suite);
      ("law-fit", Test_law_fit.suite);
      ("moldable-chain", Test_moldable_chain.suite);
      ("properties", Test_properties.suite);
      ("replication", Test_replication.suite);
      ("output-tools", Test_output_tools.suite);
      ("rejuvenation", Test_rejuvenation.suite);
      ("scenarios", Test_scenarios.suite);
      ("obs", Test_obs.suite);
      ("obs-tools", Test_obs_tools.suite);
      ("lint", Test_lint.suite);
      ("bench", Test_bench.suite);
      ("serve", Test_serve.suite);
      ("examples", Test_examples.suite);
    ]
