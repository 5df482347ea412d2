#include "src/core/search_shell.h"

namespace advtext {

SearchShell::SearchShell(const AttackControl& control) : control_(control) {}

SearchShell::SearchShell(const TextClassifier& model, const TokenSeq& base,
                         const AttackControl& control)
    : control_(control), evaluator_(model.make_swap_evaluator(base)) {
  // The evaluator owns the accounting of candidate queries from here on:
  // it polls the deadline per row, charges the budget once per cache miss
  // and serves repeats from the bound cache.
  evaluator_->bind_control(&control_);
}

bool SearchShell::poll() {
  if (control_.deadline.expired()) {
    limit_ = TerminationReason::kDeadlineExceeded;
  } else if (control_.budget_exhausted()) {
    limit_ = TerminationReason::kBudgetExhausted;
  }
  return limit_hit();
}

void SearchShell::charge_direct(std::size_t n) {
  control_.charge(n);
  if (control_.budget != nullptr) direct_charged_ += n;
}

void SearchShell::count_direct(std::size_t n) {
  charge_direct(n);
  direct_queries_ += n;
}

void SearchShell::finish(SearchOutcome& outcome,
                         double success_threshold) const {
  outcome.termination = worse_of(outcome.termination, limit_);
  if (evaluator_ != nullptr) {
    outcome.queries += evaluator_->queries();
    outcome.cache_hits += evaluator_->cache_hits();
    outcome.cache_misses += evaluator_->cache_misses();
    outcome.budget_charged += evaluator_->budget_charged();
  }
  // Direct forwards are computed, never cached: each counted one is a miss.
  outcome.queries += direct_queries_;
  outcome.cache_misses += direct_queries_;
  outcome.budget_charged += direct_charged_;
  ADVTEXT_DCHECK(outcome.queries == outcome.cache_hits + outcome.cache_misses)
      << "search: query accounting drift (" << outcome.queries
      << " != " << outcome.cache_hits << " + " << outcome.cache_misses << ")";
  outcome.success = outcome.final_target_proba >= success_threshold;
  if (outcome.success) outcome.termination = TerminationReason::kSucceeded;
  outcome.seconds = watch_.elapsed_seconds();
}

}  // namespace advtext
