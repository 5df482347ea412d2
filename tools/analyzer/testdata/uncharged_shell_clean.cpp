// fixture-path: src/core/fixture_shell_clean.cpp
// expect-clean
struct FixtureModel {
  double class_probability(int target) const;
};

// A SearchShell made over the model binds the control to its evaluator,
// so the search's candidate queries are charged; forwards made outside
// the evaluator are charged through charge_direct / count_direct.
double fixture_search(const FixtureModel& model,
                      const AttackControl& control) {
  SearchShell shell(model, 3, control);
  const double p = model.class_probability(1);
  shell.charge_direct(1);
  return p;
}

double fixture_verify(const FixtureModel& model,
                      const AttackControl& control) {
  SearchShell shell(control);
  const double p = model.class_probability(1);
  shell.count_direct(1);
  return p;
}
