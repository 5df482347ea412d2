#include "src/nn/text_classifier.h"

#include <algorithm>

namespace advtext {

namespace {

/// Fallback evaluator: one full forward pass per candidate. It wraps
/// models whose determinism it cannot know (randomized smoothing draws per
/// forward), so it never caches: memoizing a random draw would make cache
/// on differ from cache off.
class FullForwardEvaluator : public SwapEvaluator {
 public:
  FullForwardEvaluator(const TextClassifier& model, const TokenSeq& base)
      : model_(model) {
    cacheable_ = false;
    rebase(base);
  }

 protected:
  std::size_t do_num_classes() const override { return model_.num_classes(); }

  void do_rebase(const TokenSeq& /*tokens*/) override {}

  void do_eval_swap_batch(const SwapCandidate* candidates,
                          const std::size_t* rows, std::size_t count,
                          Matrix& out) override {
    TokenSeq tokens = base_tokens_;
    for (std::size_t m = 0; m < count; ++m) {
      tokens[candidates[m].pos] = candidates[m].word;
      const Vector proba = model_.predict_proba(tokens);
      std::copy(proba.begin(), proba.end(), out.row(rows[m]));
      tokens[candidates[m].pos] = base_tokens_[candidates[m].pos];
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
  const TextClassifier& model_;
};

}  // namespace

// ---- SwapEvaluator shell ---------------------------------------------------

void SwapEvaluator::rebase(const TokenSeq& tokens) {
  base_tokens_ = tokens;
  do_rebase(base_tokens_);
}

void SwapEvaluator::bind_control(const AttackControl* control) {
  control_ = control;
}

QueryCache* SwapEvaluator::active_cache() const {
  if (!cacheable_ || control_ == nullptr || control_->cache == nullptr) {
    return nullptr;
  }
  return control_->cache->enabled() ? control_->cache : nullptr;
}

std::uint64_t SwapEvaluator::swap_key(std::size_t pos,
                                      WordId candidate) const {
  // Streamed hash of the full resulting sequence: prefix bytes, the
  // candidate word, then the suffix. Identical to hashing the materialized
  // swapped sequence, so swap keys and eval_tokens keys unify.
  std::uint64_t h = fnv1a64_append(kFnv1a64Seed, base_tokens_.data(),
                                   pos * sizeof(WordId));
  h = fnv1a64_append(h, &candidate, sizeof(WordId));
  h = fnv1a64_append(h, base_tokens_.data() + pos + 1,
                     (base_tokens_.size() - pos - 1) * sizeof(WordId));
  return h;
}

void SwapEvaluator::charge_one() {
  if (control_ != nullptr && control_->budget != nullptr) {
    control_->charge(1);
    ++charged_;
  }
}

template <typename Compute>
Vector SwapEvaluator::serve_one(QueryCache* cache, std::uint64_t key,
                                Compute&& compute) {
  ++queries_;
  if (cache != nullptr) {
    if (const std::vector<float>* hit = cache->lookup(key)) {
      ++hits_;
      return *hit;
    }
  }
  ++misses_;
  charge_one();
  Vector proba = compute();
  if (cache != nullptr) cache->insert(key, proba);
  return proba;
}

Vector SwapEvaluator::eval_swap(std::size_t pos, WordId candidate) {
  ADVTEXT_CHECK_SHAPE(pos < base_tokens_.size())
      << "eval_swap: position " << pos << " out of range for base of "
      << base_tokens_.size() << " tokens";
  QueryCache* cache = active_cache();
  return serve_one(cache, cache != nullptr ? swap_key(pos, candidate) : 0,
                   [&] { return do_eval_swap(pos, candidate); });
}

Vector SwapEvaluator::eval_tokens(const TokenSeq& tokens) {
  QueryCache* cache = active_cache();
  const std::uint64_t key =
      cache != nullptr ? fnv1a64(tokens.data(), tokens.size() * sizeof(WordId))
                       : 0;
  return serve_one(cache, key, [&] { return do_eval_tokens(tokens); });
}

template <typename KeyOf>
BatchStatus SwapEvaluator::plan_batch(std::size_t count, Matrix& out,
                                      KeyOf&& key_of) {
  const std::size_t classes = do_num_classes();
  if (out.rows() != count || out.cols() != classes) {
    out = Matrix(count, classes);
  }
  QueryCache* cache = active_cache();
  miss_rows_.clear();
  miss_keys_.clear();
  alias_rows_.clear();
  pending_.clear();

  // Walk the batch in request order, replicating the per-candidate loops'
  // control checks (deadline before every row, budget before every miss)
  // so budget-limited truncation lands on the same logical query index as
  // a loop of lone queries would.
  BatchStatus status;
  for (std::size_t i = 0; i < count; ++i) {
    if (control_ != nullptr && control_->deadline.expired()) {
      status.out_of_time = true;
      break;
    }
    const std::uint64_t key = key_of(i);
    if (cache != nullptr) {
      if (const std::vector<float>* hit = cache->lookup(key)) {
        std::copy(hit->begin(), hit->end(), out.row(i));
        ++queries_;
        ++hits_;
        ++status.evaluated;
        continue;
      }
      const auto pending = pending_.find(key);
      if (pending != pending_.end()) {
        // In-batch duplicate of a still-pending miss: copy its row once
        // the misses are scored. Costs nothing and is not charged.
        alias_rows_.emplace_back(i, pending->second);
        ++queries_;
        ++hits_;
        ++status.evaluated;
        continue;
      }
    }
    if (control_ != nullptr && control_->budget_exhausted()) {
      status.out_of_budget = true;
      break;
    }
    if (cache != nullptr) {
      pending_.emplace(key, i);
      miss_keys_.push_back(key);
    }
    ++queries_;
    ++misses_;
    charge_one();
    miss_rows_.push_back(i);
    ++status.evaluated;
  }
  return status;
}

void SwapEvaluator::finish_batch(Matrix& out) {
  if (QueryCache* cache = active_cache()) {
    const std::size_t classes = out.cols();
    for (std::size_t m = 0; m < miss_rows_.size(); ++m) {
      const float* r = out.row(miss_rows_[m]);
      row_scratch_.assign(r, r + classes);
      cache->insert(miss_keys_[m], row_scratch_);
    }
  }
  for (const auto& [dst, src] : alias_rows_) {
    std::copy(out.row(src), out.row(src) + out.cols(), out.row(dst));
  }
}

BatchStatus SwapEvaluator::eval_swap_batch(const SwapCandidate* candidates,
                                           std::size_t count, Matrix& out) {
  const bool keyed = active_cache() != nullptr;
  const BatchStatus status = plan_batch(count, out, [&](std::size_t i) {
    ADVTEXT_CHECK_SHAPE(candidates[i].pos < base_tokens_.size())
        << "eval_swap_batch: position " << candidates[i].pos
        << " out of range for base of " << base_tokens_.size() << " tokens";
    return keyed ? swap_key(candidates[i].pos, candidates[i].word) : 0;
  });
  if (!miss_rows_.empty()) {
    miss_cands_.clear();
    for (const std::size_t i : miss_rows_) miss_cands_.push_back(candidates[i]);
    do_eval_swap_batch(miss_cands_.data(), miss_rows_.data(),
                       miss_rows_.size(), out);
  }
  finish_batch(out);
  return status;
}

BatchStatus SwapEvaluator::eval_swap_batch(
    const std::vector<SwapCandidate>& candidates, Matrix& out) {
  return eval_swap_batch(candidates.data(), candidates.size(), out);
}

BatchStatus SwapEvaluator::eval_tokens_batch(const TokenSeq* docs,
                                             std::size_t count, Matrix& out) {
  const bool keyed = active_cache() != nullptr;
  const BatchStatus status = plan_batch(count, out, [&](std::size_t i) {
    return keyed ? fnv1a64(docs[i].data(), docs[i].size() * sizeof(WordId))
                 : 0;
  });
  if (!miss_rows_.empty()) {
    miss_docs_.clear();
    for (const std::size_t i : miss_rows_) miss_docs_.push_back(&docs[i]);
    do_eval_tokens_batch(miss_docs_.data(), miss_rows_.data(),
                         miss_rows_.size(), out);
  }
  finish_batch(out);
  return status;
}

BatchStatus SwapEvaluator::eval_tokens_batch(const std::vector<TokenSeq>& docs,
                                             Matrix& out) {
  return eval_tokens_batch(docs.data(), docs.size(), out);
}

Vector SwapEvaluator::do_eval_swap(std::size_t pos, WordId candidate) {
  const SwapCandidate one{pos, candidate};
  const std::size_t row = 0;
  Matrix out(1, do_num_classes());
  do_eval_swap_batch(&one, &row, 1, out);
  return out.row_copy(0);
}

Vector SwapEvaluator::do_eval_tokens(const TokenSeq& tokens) {
  const TokenSeq* one = &tokens;
  const std::size_t row = 0;
  Matrix out(1, do_num_classes());
  do_eval_tokens_batch(&one, &row, 1, out);
  return out.row_copy(0);
}

// ---- TextClassifier --------------------------------------------------------

Matrix TextClassifier::predict_proba_batch(
    const std::vector<TokenSeq>& docs) const {
  Matrix out(docs.size(), num_classes());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    const Vector proba = predict_proba(docs[i]);
    std::copy(proba.begin(), proba.end(), out.row(i));
  }
  return out;
}

std::size_t TextClassifier::predict(const TokenSeq& tokens) const {
  const Vector proba = predict_proba(tokens);
  return static_cast<std::size_t>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
}

std::unique_ptr<SwapEvaluator> TextClassifier::make_swap_evaluator(
    const TokenSeq& base) const {
  return std::make_unique<FullForwardEvaluator>(*this, base);
}

}  // namespace advtext
