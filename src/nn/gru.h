// One-layer GRU text classifier (Cho et al. 2014).
//
// A second recurrent victim family beyond the paper's LSTM: the attacks
// only touch the TextClassifier interface, so the GRU drops in anywhere
// the benches use the LSTM. Full manual BPTT (training + per-word input
// gradients).
//
// Gate equations (n = h_{t-1}):
//   z = σ(Wz x + Uz n + bz)            update gate
//   r = σ(Wr x + Ur n + br)            reset gate
//   h~ = tanh(Wh x + Uh (r∘n) + bh)    candidate state
//   h = (1-z)∘n + z∘h~
//
// Two forward paths: forward_traced (plain dot chains, recording the
// activations BPTT needs) and the shared recurrent scorer
// (src/nn/recurrent_swap_evaluator.h), which serves predict_proba and the
// SwapEvaluator. The GRU supplies its Cell (gru.cpp):
//   * gate gemms: input x*Wx^T (3H wide, [z | r | h~]), recurrent
//     n*U[z;r]^T (2H) and then (r∘n)*Uh^T (H), weights packed once per
//     evaluator;
//   * elementwise update: the gate equations above, split around the
//     candidate gemm;
//   * state width H: each state row is h;
//   * output head: softmax(W_out h + b_out).
#pragma once

#include <cstdint>
#include <memory>

#include "src/nn/embedding.h"
#include "src/nn/text_classifier.h"
#include "src/util/rng.h"

namespace advtext {

struct GruConfig {
  std::size_t embed_dim = 16;
  std::size_t hidden = 24;
  std::size_t num_classes = 2;
  float train_dropout = 0.05f;
  std::uint64_t seed = 1;
};

class GruClassifier final : public TrainableClassifier {
 public:
  GruClassifier(const GruConfig& config, Matrix pretrained_embeddings,
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

  const GruConfig& config() const { return config_; }
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
  friend struct GruCell;

  struct StepTrace {
    Vector z, r, htilde, h;
  };

  Vector forward_traced(const TokenSeq& tokens, std::vector<StepTrace>* traces,
                        Matrix* embedded) const;

  /// Probabilities from a final hidden state.
  Vector proba_from_hidden(const Vector& h) const;

  /// Backward pass from dh at the final step. `on_grads` receives, per
  /// step t, the gate pre-activation gradients (daz, dar, dah) and n =
  /// h_{t-1}; input gradients go to input_grad when non-null.
  template <typename OnGrads>
  void bptt(const Matrix& embedded, const std::vector<StepTrace>& traces,
            Vector dh_final, OnGrads&& on_grads, Matrix* input_grad) const;

  GruConfig config_;
  EmbeddingLayer embedding_;

  // Gate weight rows are stacked: [z; r; h~], each hidden x {D or H}.
  Matrix wx_;        // 3H x D
  Matrix wx_grad_;
  Matrix uh_;        // 3H x H
  Matrix uh_grad_;
  Vector b_;         // 3H
  Vector b_grad_;
  Matrix out_w_;     // C x H
  Matrix out_w_grad_;
  Vector out_b_;     // C
  Vector out_b_grad_;

  mutable Rng rng_;
};

}  // namespace advtext
