let () =
  Test_cache_share.child_main ();
  Alcotest.run "mclock"
    [
      ("util", Test_util.suite);
      ("dfg", Test_dfg.suite);
      ("sched", Test_sched.suite);
      ("rtl", Test_rtl.suite);
      ("core", Test_core.suite);
      ("sim", Test_sim.suite);
      ("compiled", Test_compiled.suite);
      ("power", Test_power.suite);
      ("workloads", Test_workloads.suite);
      ("gatelevel", Test_gatelevel.suite);
      ("lang", Test_lang.suite);
      ("resched", Test_resched.suite);
      ("ctrl", Test_ctrl.suite);
      ("stimulus", Test_stimulus.suite);
      ("exec", Test_exec.suite);
      ("reg-bind", Test_reg_bind.suite);
      ("structure", Test_structure.suite);
      ("lint", Test_lint.suite);
      ("properties", Test_props.suite);
      ("explore", Test_explore.suite);
      ("search", Test_search.suite);
      ("resume", Test_resume.suite);
      ("shared-cache", Test_cache_share.suite);
      ("static", Test_static.suite);
      ("obs", Test_obs.suite);
      ("cli", Test_cli.suite);
    ]
