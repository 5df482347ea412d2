// Lazy objective-guided greedy word attack (Minoux acceleration).
//
// Section 4 justifies greedy through submodularity; submodularity also
// licenses Minoux's lazy evaluation: a (position, candidate) swap's gain
// can only shrink as more positions are committed, so stale gains from
// earlier rounds are valid upper bounds. This variant of the Kuleshov
// greedy keeps all swaps in a max-heap keyed by their last-known gain and
// re-evaluates only the top until a freshly-evaluated entry stays on top.
// Identical output to objective_greedy_attack when f is submodular;
// empirically near-identical otherwise, at a fraction of the queries
// (extension bench bench_ext_query_budget quantifies this).
#pragma once

#include "src/core/attack_types.h"
#include "src/core/transformation.h"
#include "src/nn/text_classifier.h"

namespace advtext {

struct LazyGreedyAttackConfig {
  double max_replace_fraction = 0.5;  ///< λw
  double success_threshold = 0.7;     ///< τ
  double min_gain = 1e-6;
};

/// Honours `control` like objective_greedy_attack: the evaluator shell
/// polls the deadline per candidate, charges the budget once per cache
/// miss and serves repeats from the bound cache; the heap refreshes poll
/// both limits before every query. A limit hit keeps the last committed
/// document and sets `termination`.
WordAttackResult lazy_greedy_attack(const TextClassifier& model,
                                    const TokenSeq& tokens,
                                    const WordCandidates& candidates,
                                    std::size_t target,
                                    const LazyGreedyAttackConfig& config = {},
                                    const AttackControl& control = {});

}  // namespace advtext
