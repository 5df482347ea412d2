// One-layer LSTM text classifier (Hochreiter & Schmidhuber 1997), as used
// in the paper: embedding -> LSTM -> fully connected softmax on the final
// hidden state. Full backpropagation-through-time is implemented by hand,
// both for training and for the per-word input-embedding gradients that
// drive the attacks.
//
// Two forward paths: forward_traced (plain dot chains, recording the
// activations BPTT needs) and the shared recurrent scorer
// (src/nn/recurrent_swap_evaluator.h), which serves predict_proba and the
// SwapEvaluator. The LSTM supplies its Cell (lstm.cpp):
//   * gate gemms: input x*Wx^T and recurrent h*Wh^T, both 4H wide in gate
//     order [i | f | g | o], with the weights packed once per evaluator;
//   * elementwise update: z = zx + zh + b, σ on i/f/o and tanh on g, then
//     c = f∘c + i∘g and h = o∘tanh(c);
//   * state width 2H: each state row is [h | c];
//   * output head: softmax(W_out h + b_out).
#pragma once

#include <cstdint>
#include <memory>

#include "src/nn/embedding.h"
#include "src/nn/text_classifier.h"
#include "src/util/rng.h"

namespace advtext {

struct LstmConfig {
  std::size_t embed_dim = 16;
  std::size_t hidden = 32;       ///< paper: 512; scaled down (DESIGN.md §4)
  std::size_t num_classes = 2;
  float train_dropout = 0.05f;   ///< dropout on the final hidden state
  std::uint64_t seed = 1;
};

class LstmClassifier final : public TrainableClassifier {
 public:
  LstmClassifier(const LstmConfig& config, Matrix pretrained_embeddings,
                 bool freeze_embedding = true);

  std::size_t num_classes() const override { return config_.num_classes; }
  std::size_t embedding_dim() const override { return config_.embed_dim; }
  const Matrix& embedding_table() const override {
    return embedding_.table();
  }

  Vector predict_proba(const TokenSeq& tokens) const override;
  Matrix input_gradient(const TokenSeq& tokens, std::size_t target,
                        Vector* proba = nullptr) const override;
  std::unique_ptr<SwapEvaluator> make_swap_evaluator(
      const TokenSeq& base) const override;

  float forward_backward(const TokenSeq& tokens, std::size_t label) override;
  std::vector<ParamRef> params() override;
  void zero_grad() override;

  const LstmConfig& config() const { return config_; }
  const EmbeddingLayer& embedding() const { return embedding_; }

  // Dropout RNG round-trip for bitwise-identical training resume.
  std::vector<std::uint64_t> stochastic_state() const override {
    const RngState s = rng_.state();
    return {s.begin(), s.end()};
  }
  void set_stochastic_state(const std::vector<std::uint64_t>& words) override {
    RngState s{};
    for (std::size_t i = 0; i < s.size() && i < words.size(); ++i)
      s[i] = words[i];
    rng_.set_state(s);
  }

 private:
  friend struct LstmCell;

  /// Per-step activations recorded during the stateful forward pass.
  struct StepTrace {
    Vector i, f, g, o, c, tanh_c, h;
  };

  /// Forward pass recording traces; returns final probabilities.
  Vector forward_traced(const TokenSeq& tokens, std::vector<StepTrace>* traces,
                        Matrix* embedded) const;

  /// Probabilities from a final hidden state.
  Vector proba_from_hidden(const Vector& h) const;

  /// Shared backpropagation-through-time core. Starting from dh at the
  /// final step, walks the recurrence backwards; for every step it invokes
  /// `on_step(t, dz, h_prev)` (used by training to accumulate parameter
  /// gradients) and, when input_grad is non-null, writes dL/dx_t into its
  /// rows. Const: touches no member gradient buffers itself.
  template <typename OnStep>
  void bptt(const Matrix& embedded, const std::vector<StepTrace>& traces,
            Vector dh_final, OnStep&& on_step, Matrix* input_grad) const;

  LstmConfig config_;
  EmbeddingLayer embedding_;

  Matrix wx_;        // 4H x D   (gate order: i, f, g, o)
  Matrix wx_grad_;
  Matrix wh_;        // 4H x H
  Matrix wh_grad_;
  Vector b_;         // 4H
  Vector b_grad_;
  Matrix out_w_;     // C x H
  Matrix out_w_grad_;
  Vector out_b_;     // C
  Vector out_b_grad_;

  mutable Rng rng_;
};

}  // namespace advtext
