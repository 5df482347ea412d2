// One search shell for every attack.
//
// Every search in the paper works the same way: build a candidate set,
// score it against Cy, commit the best, and stop at τ, λ or a limit. That
// covers Alg. 2 (sentences), Alg. 3 (gradient-guided greedy), the Kuleshov
// greedy, its lazy (Minoux) variant and the gradient baseline; only the
// selection policy differs. SearchShell owns the per-attack mechanics the
// policies share:
//   * the SwapEvaluator, made over the search's base document and bound to
//     its AttackControl (deadline, budget, cache);
//   * polls — deadline first, then budget — recording which limit fired;
//   * chunked scoring: score() walks a candidate list in kScoreChunkRows
//     chunks through the evaluator's batch entry points and stops on the
//     first truncation;
//   * direct charges for forwards made outside the evaluator (anchor,
//     gradient, verification);
//   * finish(): termination, counters, the query-accounting check, success
//     and timing, written once into the search's SearchOutcome.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/core/attack_types.h"
#include "src/nn/text_classifier.h"
#include "src/util/stopwatch.h"

namespace advtext {

/// Rows per eval_swap_batch / eval_tokens_batch call in SearchShell::score.
/// Bounds how much work happens between deadline polls (the evaluator
/// checks per row in phase A, but phase B computes a whole chunk), keeping
/// the watchdog and chaos-campaign latency guarantees intact.
inline constexpr std::size_t kScoreChunkRows = 64;

class SearchShell {
 public:
  /// A shell that scores no candidates (no evaluator): polls, direct
  /// charges and finish() only.
  explicit SearchShell(const AttackControl& control);

  /// A shell whose evaluator is made over `base` and bound to `control`.
  SearchShell(const TextClassifier& model, const TokenSeq& base,
              const AttackControl& control);

  SwapEvaluator& evaluator() { return *evaluator_; }

  /// Checks the deadline, then the budget, and records the first limit that
  /// fired. Returns limit_hit().
  bool poll();

  /// True once a poll or a truncated score() met a limit.
  bool limit_hit() const {
    return limit_ != TerminationReason::kExhaustedCandidates;
  }

  /// Scores `rows` (SwapCandidates against the evaluator's base, or whole
  /// TokenSeqs) in kScoreChunkRows chunks and calls visit(i, proba) for
  /// each evaluated row i in order, `proba` being its class-probability
  /// row. Stops on the first truncated chunk, recording the limit; returns
  /// false when it did, true when every row was scored.
  template <typename Row, typename Visit>
  bool score(const std::vector<Row>& rows, Visit&& visit) {
    for (std::size_t off = 0; off < rows.size(); off += kScoreChunkRows) {
      const std::size_t len = std::min(kScoreChunkRows, rows.size() - off);
      const BatchStatus status = eval_chunk(rows.data() + off, len);
      for (std::size_t i = 0; i < status.evaluated; ++i) {
        visit(off + i, scores_.row(i));
      }
      if (status.out_of_time) limit_ = TerminationReason::kDeadlineExceeded;
      if (status.out_of_budget) limit_ = TerminationReason::kBudgetExhausted;
      if (status.truncated()) return false;
    }
    return true;
  }

  /// Charges `n` forwards made outside the evaluator to the budget. They
  /// count toward budget_charged only when a budget is bound, and never
  /// toward queries.
  void charge_direct(std::size_t n);

  /// charge_direct, and also counts the forwards in queries as misses.
  void count_direct(std::size_t n);

  /// Writes the search's accounting into `outcome`, whose
  /// final_target_proba the search has set: the recorded limit folds into
  /// termination, the evaluator's and the direct counters add to the
  /// counters, success is final_target_proba >= `success_threshold`
  /// (termination kSucceeded), and seconds is the shell's lifetime.
  void finish(SearchOutcome& outcome, double success_threshold) const;

 private:
  BatchStatus eval_chunk(const SwapCandidate* rows, std::size_t count) {
    return evaluator_->eval_swap_batch(rows, count, scores_);
  }
  BatchStatus eval_chunk(const TokenSeq* rows, std::size_t count) {
    return evaluator_->eval_tokens_batch(rows, count, scores_);
  }

  const AttackControl& control_;
  Stopwatch watch_;
  std::unique_ptr<SwapEvaluator> evaluator_;
  Matrix scores_;
  TerminationReason limit_ = TerminationReason::kExhaustedCandidates;
  std::size_t direct_queries_ = 0;
  std::size_t direct_charged_ = 0;
};

}  // namespace advtext
