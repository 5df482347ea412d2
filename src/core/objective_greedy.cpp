#include "src/core/objective_greedy.h"

#include <cmath>

#include "src/core/search_shell.h"

namespace advtext {

WordAttackResult objective_greedy_attack(const TextClassifier& model,
                                         const TokenSeq& tokens,
                                         const WordCandidates& candidates,
                                         std::size_t target,
                                         const ObjectiveGreedyConfig& config,
                                         const AttackControl& control) {
  FaultInjector::instance().maybe_fault("attack.word");
  SearchShell shell(model, tokens, control);
  WordAttackResult result;
  result.adv_tokens = tokens;
  const std::size_t n = tokens.size();
  const std::size_t budget = static_cast<std::size_t>(
      std::ceil(config.max_replace_fraction * static_cast<double>(n)));

  double current = model.class_probability(result.adv_tokens, target);
  shell.charge_direct(1);
  std::vector<bool> replaced(n, false);
  std::vector<SwapCandidate> round;

  while (current < config.success_threshold &&
         count_changes(tokens, result.adv_tokens) < budget) {
    ++result.iterations;
    // Score every single-word swap from the current document, in
    // position/word order, and keep the largest gain.
    round.clear();
    for (std::size_t pos = 0; pos < n; ++pos) {
      if (replaced[pos]) continue;  // one replacement per position
      for (WordId cand : candidates.per_position[pos]) {
        if (cand == result.adv_tokens[pos]) continue;
        round.push_back({pos, cand});
      }
    }
    double best_gain = config.min_gain;
    std::size_t best = round.size();
    const bool complete =
        shell.score(round, [&](std::size_t i, const float* proba) {
          const double gain = proba[target] - current;
          if (gain > best_gain) {
            best_gain = gain;
            best = i;
          }
        });
    // A limit hit abandons the sweep but keeps the last *committed*
    // document — never a half-evaluated swap.
    if (!complete || best == round.size()) break;
    result.adv_tokens[round[best].pos] = round[best].word;
    replaced[round[best].pos] = true;
    shell.evaluator().rebase(result.adv_tokens);
    // Re-anchor against drift (and MC-dropout noise) with a fresh forward.
    current = shell.evaluator().eval_tokens(result.adv_tokens)[target];
  }

  result.final_target_proba =
      model.class_probability(result.adv_tokens, target);
  shell.charge_direct(1);
  result.words_changed = count_changes(tokens, result.adv_tokens);
  shell.finish(result, config.success_threshold);
  return result;
}

}  // namespace advtext
