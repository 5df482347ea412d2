// fixture-path: src/core/fixture_shell_firing.cpp
// expect: uncharged-forward@12
struct FixtureModel {
  double class_probability(int target) const;
};

// A shell without a model makes no evaluator and binds nothing: the
// forward below is charged nowhere on the chain.
double fixture_search(const FixtureModel& model,
                      const AttackControl& control) {
  SearchShell shell(control);
  return model.class_probability(1);
}
