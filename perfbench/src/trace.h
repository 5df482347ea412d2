// Outside-in tracing of the scoring layer: a forwarding TextClassifier that
// times and counts every call into the real model and into the real
// model's SwapEvaluator, from the benchmark's own files. The wrapped model
// scores exactly as the bare one does — batch hooks forward whole batches to
// the inner evaluator's batch entry points, and the outer evaluator shell
// keeps the query cache, the budget and the query counters — so a traced
// sweep commits the same records as an untraced one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/nn/text_classifier.h"

namespace perfbench {

/// Calls, rows and busy nanoseconds of one scoring entry point. Atomic:
/// the greedy_gru sweep scores on two workers at once.
struct CallStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::uint64_t> ns{0};

  void record(std::uint64_t row_count, std::uint64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    rows.fetch_add(row_count, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
  double busy_s() const {
    return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
  }
};

struct ScoringStats {
  CallStats rebase;        ///< evaluator construction and rebase
  CallStats swap_batch;    ///< single-position swaps (a lone swap is 1 row)
  CallStats tokens_batch;  ///< whole-sequence candidates
  CallStats gradient;      ///< input_gradient
  CallStats predict;       ///< predict_proba and predict_proba_batch
};

/// Forwarding classifier. `inner` and `stats` must outlive it and every
/// evaluator it makes.
class TracedClassifier final : public advtext::TextClassifier {
 public:
  TracedClassifier(const advtext::TextClassifier& inner, ScoringStats& stats)
      : inner_(inner), stats_(stats) {}
  /// Owning form, for the sweep's per-worker replicas.
  TracedClassifier(std::unique_ptr<advtext::TextClassifier> owned,
                   ScoringStats& stats)
      : owned_(std::move(owned)), inner_(*owned_), stats_(stats) {}

  std::size_t num_classes() const override { return inner_.num_classes(); }
  std::size_t embedding_dim() const override {
    return inner_.embedding_dim();
  }
  const advtext::Matrix& embedding_table() const override {
    return inner_.embedding_table();
  }
  advtext::Vector predict_proba(
      const advtext::TokenSeq& tokens) const override;
  advtext::Matrix predict_proba_batch(
      const std::vector<advtext::TokenSeq>& docs) const override;
  advtext::Matrix input_gradient(const advtext::TokenSeq& tokens,
                                 std::size_t target,
                                 advtext::Vector* proba) const override;
  std::unique_ptr<advtext::SwapEvaluator> make_swap_evaluator(
      const advtext::TokenSeq& base) const override;

 private:
  std::unique_ptr<advtext::TextClassifier> owned_;
  const advtext::TextClassifier& inner_;
  ScoringStats& stats_;
};

}  // namespace perfbench
