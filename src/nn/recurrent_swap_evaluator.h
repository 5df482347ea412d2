// The one batched scoring primitive of the recurrent families (LSTM, GRU).
//
// A recurrent state after consuming tokens[0..p) depends on that prefix
// only, so every query against a base document restarts from the base's
// cached prefix state at the first position where it differs and runs the
// suffix. RecurrentSwapEvaluator<Cell> owns that suffix routine:
//
//   * rebase() runs it once over the base (from the zero state), recording
//     the state after every prefix;
//   * eval_swap_batch() and eval_tokens_batch() stack every miss as one row
//     starting at its first differing position — rows are sorted by that
//     position, so at each timestep the active rows are scored by one packed
//     gemm per layer, rows join as the sweep reaches their start and leave
//     at their own length (documents of any length, identical documents and
//     strict prefixes included);
//   * rows whose token at t equals the base token share one input
//     pre-activation for that token, computed once;
//   * the model's predict_proba is rebase() of the document plus the head.
//
// Every element is the same ascending-k dot chain the training forward
// (forward_traced) computes, so all of these equal
// input_gradient(tokens, target, &proba)'s proba bit for bit.
//
// The Cell contract — everything family-specific:
//
//   struct Cell {
//     using Model = ...;                   // the classifier; public
//                                          //   embedding(), config().embed_dim
//                                          //   and num_classes()
//     explicit Cell(const Model&);         // packs the (frozen) gate weights
//     std::size_t gate_width() const;      // columns of one input
//                                          //   pre-activation row
//     std::size_t state_width() const;     // floats of state per row; the
//                                          //   zero row is the initial state
//     void input_gates(const float* x, std::size_t m, float* zx) const;
//                                          // m x D embeddings -> m x gate_width
//     void step(const float* const* zx, std::size_t m, float* state);
//                                          // recurrent gemms + elementwise
//                                          //   update of m stacked state rows,
//                                          //   row j consuming zx[j]
//     void head(const float* state, std::size_t m, float* proba);
//                                          // m state rows -> m x C softmax
//   };
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/nn/text_classifier.h"
#include "src/util/check.h"

namespace advtext {

template <typename Cell>
class RecurrentSwapEvaluator final : public SwapEvaluator {
 public:
  using Model = typename Cell::Model;

  RecurrentSwapEvaluator(const Model& model, const TokenSeq& base)
      : model_(model), cell_(model) {
    rebase(base);
  }

  /// Class probabilities of `tokens` from the zero state: the model's
  /// predict_proba.
  static Vector predict(const Model& model, const TokenSeq& tokens) {
    RecurrentSwapEvaluator evaluator(model, tokens);
    Vector proba(model.num_classes());
    evaluator.cell_.head(evaluator.states_.row(tokens.size()), 1,
                         proba.data());
    return proba;
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& tokens) override {
    ADVTEXT_CHECK_SHAPE(!tokens.empty()) << "recurrent model: empty input";
    // states_.row(t) = state after consuming tokens[0..t); row 0 is zero.
    states_ = Matrix(tokens.size() + 1, cell_.state_width());
    rows_.assign(1, {tokens.data(), 0, tokens.size(), tokens[0], 0});
    run_suffixes(1, /*record=*/true);
  }

  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    rows_.resize(count);
    for (std::size_t m = 0; m < count; ++m) {
      rows_[m] = {base_tokens_.data(), candidates[m].pos, base_tokens_.size(),
                  candidates[m].word, rows[m]};
    }
    run_suffixes(count, /*record=*/false);
    write_head(count, out);
  }

  void do_eval_tokens_batch(const TokenSeq* const* docs,
                            const std::size_t* rows, std::size_t count,
                            Matrix& out) override {
    const std::size_t n = base_tokens_.size();
    rows_.resize(count);
    for (std::size_t m = 0; m < count; ++m) {
      const TokenSeq& doc = *docs[m];
      ADVTEXT_CHECK_SHAPE(!doc.empty()) << "recurrent model: empty input";
      const std::size_t common = std::min(n, doc.size());
      std::size_t first = 0;
      while (first < common && doc[first] == base_tokens_[first]) ++first;
      rows_[m] = {doc.data(), first, doc.size(),
                  first < doc.size() ? doc[first] : WordId{0}, rows[m]};
    }
    run_suffixes(count, /*record=*/false);
    write_head(count, out);
  }

 private:
  /// One scored sequence: `tokens` agrees with the base before `first`,
  /// holds `first_word` at `first`, and ends at `end`.
  struct SuffixRow {
    const WordId* tokens;
    std::size_t first;
    std::size_t end;
    WordId first_word;
    std::size_t out;  ///< destination row of the caller's matrix
  };

  static void ensure(Matrix& m, std::size_t rows, std::size_t cols) {
    if (m.rows() < rows || m.cols() != cols) m = Matrix(rows, cols);
  }

  /// The suffix routine: runs rows_[0..count) from their cached prefix
  /// states to their ends and leaves row i's final state in final_.row(i).
  /// With `record` (a single row from position 0: rebase), the state after
  /// each step t is also stored in states_.row(t + 1).
  void run_suffixes(std::size_t count, bool record) {
    if (count == 0) return;
    const std::size_t width = cell_.state_width();
    const std::size_t gates = cell_.gate_width();
    const std::size_t dim = model_.config().embed_dim;
    const std::size_t n = base_tokens_.size();
    ensure(state_, count, width);
    ensure(final_, count, width);
    ensure(x_, count, dim);
    ensure(zx_, count, gates);
    zx_base_.resize(gates);
    zx_ptr_.resize(count);
    slot_.resize(count);
    order_.resize(count);
    for (std::size_t i = 0; i < count; ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return rows_[a].first < rows_[b].first;
                     });
    std::size_t next = 0;    // next row of order_ to start
    std::size_t active = 0;  // rows in slots [0, active) are mid-sequence
    for (std::size_t t = rows_[order_[0]].first; next < count || active > 0;
         ++t) {
      if (active == 0) t = rows_[order_[next]].first;
      while (next < count && rows_[order_[next]].first == t) {
        const float* prefix = states_.row(t);
        std::copy(prefix, prefix + width, state_.row(active));
        slot_[active++] = order_[next++];
      }
      for (std::size_t k = 0; k < active;) {
        if (rows_[slot_[k]].end != t) {
          ++k;
          continue;
        }
        std::copy(state_.row(k), state_.row(k) + width,
                  final_.row(slot_[k]));
        --active;
        if (k != active) {
          std::copy(state_.row(active), state_.row(active) + width,
                    state_.row(k));
          slot_[k] = slot_[active];
        }
      }
      if (active == 0) continue;
      std::size_t own = 0;
      bool any_shared = false;
      for (std::size_t k = 0; k < active; ++k) {
        const SuffixRow& row = rows_[slot_[k]];
        const WordId w = t == row.first ? row.first_word : row.tokens[t];
        if (t < n && w == base_tokens_[t]) {
          zx_ptr_[k] = zx_base_.data();
          any_shared = true;
        } else {
          const float* xt = model_.embedding().vector(w);
          std::copy(xt, xt + dim, x_.row(own));
          zx_ptr_[k] = zx_.row(own++);
        }
      }
      if (own > 0) cell_.input_gates(x_.data(), own, zx_.data());
      if (any_shared) {
        cell_.input_gates(model_.embedding().vector(base_tokens_[t]), 1,
                          zx_base_.data());
      }
      cell_.step(zx_ptr_.data(), active, state_.data());
      if (record) {
        std::copy(state_.row(0), state_.row(0) + width, states_.row(t + 1));
      }
    }
  }

  void write_head(std::size_t count, Matrix& out) {
    const std::size_t classes = model_.num_classes();
    ensure(proba_, count, classes);
    cell_.head(final_.data(), count, proba_.data());
    for (std::size_t i = 0; i < count; ++i) {
      std::copy(proba_.row(i), proba_.row(i) + classes, out.row(rows_[i].out));
    }
  }

  const Model& model_;
  Cell cell_;
  Matrix states_;  // (base length + 1) x state_width prefix states

  // Scratch, reused across batches.
  std::vector<SuffixRow> rows_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> slot_;
  std::vector<const float*> zx_ptr_;
  Matrix state_, final_, x_, zx_, proba_;
  Vector zx_base_;
};

}  // namespace advtext
