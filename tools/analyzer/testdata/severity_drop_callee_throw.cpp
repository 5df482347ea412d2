// fixture-path: src/eval/fixture_severity_callee_throw.cpp
// expect: severity-drop@18
// A helper that raises an exception of its own does not fold the failure
// its caller's catch absorbed; only a helper that folds (or rethrows the
// caught exception) discharges the catch.
struct FixtureReport { int termination; };

void fixture_send_reply(int fd) {
  if (fd < 0) throw std::runtime_error("reply failed");
}

void fixture_fold(FixtureReport& report) { report.termination = worse_of(report.termination, 2); }

void fixture_serve(FixtureReport& report, int fd) {
  report.termination = 0;
  try {
    fixture_step();
  } catch (const std::runtime_error& error) {
    fixture_send_reply(fd);
  }
  try {
    fixture_step();
  } catch (const std::logic_error& error) {
    fixture_fold(report);
  }
}
