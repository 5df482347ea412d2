#include "src/nn/bow_classifier.h"

#include "src/util/check.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/ops.h"

namespace advtext {

BowClassifier::BowClassifier(const BowClassifierConfig& config)
    : config_(config),
      weights_(config.num_classes, config.vocab_size),
      weights_grad_(config.num_classes, config.vocab_size),
      bias_(config.num_classes, 0.0f),
      bias_grad_(config.num_classes, 0.0f) {
  ADVTEXT_CHECK_SHAPE(config.vocab_size > 0) << "BowClassifier: empty vocab";
  Rng rng(config.seed);
  weights_.fill_normal(
      rng, static_cast<float>(
               0.1 / std::sqrt(static_cast<double>(config.vocab_size))));
}

const Matrix& BowClassifier::embedding_table() const {
  if (identity_ == nullptr) {
    identity_ =
        std::make_unique<Matrix>(config_.vocab_size, config_.vocab_size);
    for (std::size_t i = 0; i < config_.vocab_size; ++i) {
      (*identity_)(i, i) = 1.0f;
    }
  }
  return *identity_;
}

Vector BowClassifier::predict_proba(const TokenSeq& tokens) const {
  Vector logits = bias_;
  for (WordId w : tokens) {
    ADVTEXT_CHECK_SHAPE(w >= 0 && static_cast<std::size_t>(w) < config_.vocab_size) << "BowClassifier: token out of range";
    for (std::size_t c = 0; c < config_.num_classes; ++c) {
      logits[c] += weights_(c, static_cast<std::size_t>(w));
    }
  }
  return softmax(logits);
}

Matrix BowClassifier::input_gradient(const TokenSeq& tokens,
                                     std::size_t target,
                                     Vector* proba) const {
  // d p_target / d count_w = sum_c p_t (1[c=t] - p_c) W[c][w]; position i's
  // row in one-hot space is that gradient evaluated at w = token_i's
  // coordinate, i.e. the full vocab-gradient (shared across positions).
  const Vector p = predict_proba(tokens);
  if (proba != nullptr) *proba = p;
  Vector coeff(config_.num_classes);
  for (std::size_t c = 0; c < config_.num_classes; ++c) {
    coeff[c] = p[target] * ((c == target ? 1.0f : 0.0f) - p[c]);
  }
  Matrix grad(tokens.size(), config_.vocab_size);
  Vector vocab_grad(config_.vocab_size, 0.0f);
  for (std::size_t c = 0; c < config_.num_classes; ++c) {
    const float* row = weights_.row(c);
    for (std::size_t w = 0; w < config_.vocab_size; ++w) {
      vocab_grad[w] += coeff[c] * row[w];
    }
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    grad.set_row(i, vocab_grad);
  }
  return grad;
}

float BowClassifier::forward_backward(const TokenSeq& tokens,
                                      std::size_t label) {
  ADVTEXT_CHECK_SHAPE(label < config_.num_classes) << "BowClassifier: label out of range";
  Vector logits = bias_;
  for (WordId w : tokens) {
    for (std::size_t c = 0; c < config_.num_classes; ++c) {
      logits[c] += weights_(c, static_cast<std::size_t>(w));
    }
  }
  const float loss = cross_entropy(logits, label);
  const Vector dlogits = cross_entropy_grad(logits, label);
  for (std::size_t c = 0; c < config_.num_classes; ++c) {
    bias_grad_[c] += dlogits[c];
    float* grow = weights_grad_.row(c);
    for (WordId w : tokens) {
      grow[static_cast<std::size_t>(w)] += dlogits[c];
    }
  }
  return loss;
}

std::vector<ParamRef> BowClassifier::params() {
  return {{weights_.data(), weights_grad_.data(), weights_.size()},
          {bias_.data(), bias_grad_.data(), bias_.size()}};
}

void BowClassifier::zero_grad() {
  weights_grad_.fill(0.0f);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0f);
}

double BowClassifier::swap_logit_delta(std::size_t target, WordId from,
                                       WordId to) const {
  return static_cast<double>(
             weights_(target, static_cast<std::size_t>(to))) -
         weights_(target, static_cast<std::size_t>(from));
}

namespace {

/// Count-model swaps are O(num_classes): logits update incrementally.
class BowSwapEvaluator : public SwapEvaluator {
 public:
  BowSwapEvaluator(const BowClassifier& model, const Matrix& weights,
                   const Vector& bias, const TokenSeq& base)
      : model_(model), weights_(weights), bias_(bias) {
    rebase(base);
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& tokens) override {
    logits_ = bias_;
    for (WordId w : tokens) {
      for (std::size_t c = 0; c < weights_.rows(); ++c) {
        logits_[c] += weights_(c, static_cast<std::size_t>(w));
      }
    }
  }

  // A count model's swap is already O(num_classes): the logits update
  // incrementally from the cached base logits, with no gemm to win.
  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    const std::size_t classes = weights_.rows();
    for (std::size_t m = 0; m < count; ++m) {
      float* logits = out.row(rows[m]);
      for (std::size_t c = 0; c < classes; ++c) {
        logits[c] =
            logits_[c] +
            (weights_(c, static_cast<std::size_t>(candidates[m].word)) -
             weights_(c, static_cast<std::size_t>(
                             base_tokens_.at(candidates[m].pos))));
      }
      softmax_inplace(logits, classes);
    }
  }

  void do_eval_tokens_batch(const TokenSeq* const* docs,
                            const std::size_t* rows, std::size_t count,
                            Matrix& out) override {
    for (std::size_t m = 0; m < count; ++m) {
      const Vector proba = model_.predict_proba(*docs[m]);
      std::copy(proba.begin(), proba.end(), out.row(rows[m]));
    }
  }

 private:
  const BowClassifier& model_;
  const Matrix& weights_;
  const Vector& bias_;
  Vector logits_;
};

}  // namespace

std::unique_ptr<SwapEvaluator> BowClassifier::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<BowSwapEvaluator>(*this, weights_, bias_, base);
}

}  // namespace advtext
