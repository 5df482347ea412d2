// Shared configuration and result types for the attack algorithms.
#pragma once

#include <cstddef>
#include <vector>

#include "src/text/corpus.h"
#include "src/util/robust.h"

namespace advtext {

/// What every search reports, whatever its selection policy. Searches
/// always return the best-so-far perturbation: when a deadline or query
/// budget cuts the search short, `termination` says so and the result holds
/// the last committed (never partially applied) state.
///
/// `queries` counts the candidate evaluations the search made through its
/// SwapEvaluator (cache hits and misses alike), so `queries == cache_hits +
/// cache_misses`. Forwards made outside the evaluator follow a per-search
/// rule:
///   * objective_greedy_attack, lazy_greedy_attack and
///     gradient_guided_greedy_attack charge their anchor, gradient and
///     verification forwards to the budget but do not count them in
///     `queries`;
///   * gradient_attack and joint_attack's fallback count their verification
///     forward in `queries` (as a miss); gradient_attack's gradient calls
///     are charged, not counted;
///   * greedy_sentence_attack anchors through the evaluator and makes no
///     verification forward.
/// `budget_charged` is every charge the search made to a bound QueryBudget
/// (0 when none is bound).
struct SearchOutcome {
  bool success = false;            ///< target probability reached threshold
  TerminationReason termination = TerminationReason::kExhaustedCandidates;
  double final_target_proba = 0.0;
  std::size_t queries = 0;         ///< evaluations through the evaluator
  std::size_t cache_hits = 0;      ///< queries served by the query cache
  std::size_t cache_misses = 0;    ///< queries actually computed
  std::size_t budget_charged = 0;  ///< charges made to the QueryBudget
  double seconds = 0.0;

  /// Folds a finished phase in: counters add up, the phase's probability
  /// and success become this one's, and terminations aggregate by severity
  /// (kSucceeded when the phase succeeded).
  void fold(const SearchOutcome& phase) {
    queries += phase.queries;
    cache_hits += phase.cache_hits;
    cache_misses += phase.cache_misses;
    budget_charged += phase.budget_charged;
    final_target_proba = phase.final_target_proba;
    success = phase.success;
    termination = phase.success ? TerminationReason::kSucceeded
                                : worse_of(termination, phase.termination);
  }
};

/// Result of a word-level attack on a flat token sequence.
struct WordAttackResult : SearchOutcome {
  std::size_t words_changed = 0;   ///< positions differing from original
  std::size_t gradient_calls = 0;  ///< input-gradient computations
  std::size_t iterations = 0;
  TokenSeq adv_tokens;
};

/// Result of the sentence-level greedy attack (Alg. 2).
struct SentenceAttackResult : SearchOutcome {
  std::size_t sentences_changed = 0;
  Document adv_doc;
};

/// Result of the joint attack (Alg. 1). `termination` aggregates both
/// phases by severity (worse_of), so kSucceeded means the whole pipeline
/// ran inside its limits.
struct JointAttackResult : SearchOutcome {
  std::size_t sentences_changed = 0;
  std::size_t words_changed = 0;
  Document adv_doc;
};

}  // namespace advtext
