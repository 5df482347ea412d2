#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

using advtext::Matrix;
using advtext::SwapCandidate;
using advtext::TokenSeq;
using advtext::Vector;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Forwarding evaluator. The outer shell (this object's SwapEvaluator
/// base) is the one the attack binds its controls to, so caching, budget
/// charges and truncation happen exactly as on the bare evaluator; the
/// inner evaluator is left unbound and only ever computes the misses. The
/// shell stays cacheable, as the bare evaluators of the benchmark's
/// deterministic models (no MC dropout) are.
class TracedEvaluator final : public advtext::SwapEvaluator {
 public:
  TracedEvaluator(std::unique_ptr<advtext::SwapEvaluator> inner,
                  const TokenSeq& base, std::size_t classes,
                  ScoringStats& stats)
      : inner_(std::move(inner)), classes_(classes), stats_(stats) {
    // The inner evaluator was built on `base`; only the shell's copy of the
    // base (its cache key) is set here, no second rebase of the model.
    base_tokens_ = base;
  }

 protected:
  std::size_t do_num_classes() const override { return classes_; }

  void do_rebase(const TokenSeq& tokens) override {
    const auto start = std::chrono::steady_clock::now();
    inner_->rebase(tokens);
    stats_.rebase.record(1, elapsed_ns(start));
  }

  Vector do_eval_swap(std::size_t pos, advtext::WordId candidate) override {
    const auto start = std::chrono::steady_clock::now();
    Vector proba = inner_->eval_swap(pos, candidate);
    stats_.swap_batch.record(1, elapsed_ns(start));
    return proba;
  }

  Vector do_eval_tokens(const TokenSeq& tokens) override {
    const auto start = std::chrono::steady_clock::now();
    Vector proba = inner_->eval_tokens(tokens);
    stats_.tokens_batch.record(1, elapsed_ns(start));
    return proba;
  }

  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    const auto start = std::chrono::steady_clock::now();
    (void)inner_->eval_swap_batch(candidates, count, scratch_);
    scatter(rows, count, out);
    stats_.swap_batch.record(count, elapsed_ns(start));
  }

  void do_eval_tokens_batch(const TokenSeq* const* docs,
                            const std::size_t* rows, std::size_t count,
                            Matrix& out) override {
    const auto start = std::chrono::steady_clock::now();
    docs_.clear();
    for (std::size_t m = 0; m < count; ++m) docs_.push_back(*docs[m]);
    (void)inner_->eval_tokens_batch(docs_.data(), count, scratch_);
    scatter(rows, count, out);
    stats_.tokens_batch.record(count, elapsed_ns(start));
  }

 private:
  void scatter(const std::size_t* rows, std::size_t count, Matrix& out) {
    for (std::size_t m = 0; m < count; ++m) {
      std::copy(scratch_.row(m), scratch_.row(m) + classes_,
                out.row(rows[m]));
    }
  }

  std::unique_ptr<advtext::SwapEvaluator> inner_;
  std::size_t classes_;
  ScoringStats& stats_;
  Matrix scratch_;
  std::vector<TokenSeq> docs_;
};

}  // namespace

Vector TracedClassifier::predict_proba(const TokenSeq& tokens) const {
  const auto start = std::chrono::steady_clock::now();
  Vector proba = inner_.predict_proba(tokens);
  stats_.predict.record(1, elapsed_ns(start));
  return proba;
}

Matrix TracedClassifier::predict_proba_batch(
    const std::vector<TokenSeq>& docs) const {
  const auto start = std::chrono::steady_clock::now();
  Matrix proba = inner_.predict_proba_batch(docs);
  stats_.predict.record(docs.size(), elapsed_ns(start));
  return proba;
}

Matrix TracedClassifier::input_gradient(const TokenSeq& tokens,
                                        std::size_t target,
                                        Vector* proba) const {
  const auto start = std::chrono::steady_clock::now();
  Matrix grad = inner_.input_gradient(tokens, target, proba);
  stats_.gradient.record(1, elapsed_ns(start));
  return grad;
}

std::unique_ptr<advtext::SwapEvaluator> TracedClassifier::make_swap_evaluator(
    const TokenSeq& base) const {
  const auto start = std::chrono::steady_clock::now();
  std::unique_ptr<advtext::SwapEvaluator> inner =
      inner_.make_swap_evaluator(base);
  stats_.rebase.record(1, elapsed_ns(start));
  return std::make_unique<TracedEvaluator>(std::move(inner), base,
                                           inner_.num_classes(), stats_);
}

}  // namespace perfbench
