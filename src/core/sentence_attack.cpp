#include "src/core/sentence_attack.h"

#include <cmath>
#include <stdexcept>

#include "src/core/search_shell.h"

namespace advtext {

SentenceAttackResult greedy_sentence_attack(
    const TextClassifier& model, const Document& doc,
    const std::vector<std::vector<Sentence>>& neighbor_sets,
    std::size_t target, const SentenceAttackConfig& config,
    const AttackControl& control) {
  if (neighbor_sets.size() != doc.sentences.size()) {
    throw std::invalid_argument(
        "greedy_sentence_attack: neighbor set count mismatch");
  }
  FaultInjector::instance().maybe_fault("attack.sentence");
  SearchShell shell(model, doc.flatten(), control);
  SentenceAttackResult result;
  result.adv_doc = doc;
  const std::size_t l = doc.sentences.size();
  const std::size_t budget = static_cast<std::size_t>(
      std::ceil(config.max_paraphrase_fraction * static_cast<double>(l)));

  // The anchor goes through the evaluator, so it is counted and charged
  // like any candidate query.
  double current =
      shell.evaluator().eval_tokens(result.adv_doc.flatten())[target];
  std::vector<bool> paraphrased(l, false);
  struct TrialRef {
    std::size_t sentence;
    const Sentence* candidate;
  };
  std::vector<TokenSeq> trials;
  std::vector<TrialRef> refs;

  while (current < config.success_threshold &&
         result.sentences_changed < budget) {
    // Score each candidate paraphrase spliced into the current document,
    // in sentence/candidate order, and keep the largest gain.
    trials.clear();
    refs.clear();
    for (std::size_t j = 0; j < l; ++j) {
      if (paraphrased[j]) continue;
      for (const Sentence& candidate : neighbor_sets[j]) {
        Document trial = result.adv_doc;
        trial.sentences[j] = candidate;
        trials.push_back(trial.flatten());
        refs.push_back({j, &candidate});
      }
    }
    double best_gain = config.min_gain;
    std::size_t best = refs.size();
    const bool complete =
        shell.score(trials, [&](std::size_t i, const float* proba) {
          const double gain = proba[target] - current;
          if (gain > best_gain) {
            best_gain = gain;
            best = i;
          }
        });
    // Abandon the sweep on a limit hit; the last committed document stands
    // (best-so-far semantics).
    if (!complete || best == refs.size()) break;
    result.adv_doc.sentences[refs[best].sentence] = *refs[best].candidate;
    paraphrased[refs[best].sentence] = true;
    ++result.sentences_changed;
    shell.evaluator().rebase(result.adv_doc.flatten());
    current = shell.evaluator().eval_tokens(result.adv_doc.flatten())[target];
  }

  result.final_target_proba = current;
  shell.finish(result, config.success_threshold);
  return result;
}

}  // namespace advtext
