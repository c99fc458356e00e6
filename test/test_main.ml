let () =
  Alcotest.run "osr_distilled"
    [
      Suite_lang.suite;
      Suite_cfg.suite;
      Suite_ctl.suite;
      Suite_rewrite.suite;
      Suite_osr.suite;
      Suite_miniir.suite;
      Suite_passes.suite;
      Suite_osrir.suite;
      Suite_engine.suite;
      Suite_corpus.suite;
      Suite_debuginfo.suite;
      Suite_report.suite;
      Suite_telemetry.suite;
      Suite_robustness.suite;
      Suite_front.suite;
      Suite_sweep.suite;
      Suite_mapper.suite;
    ]
