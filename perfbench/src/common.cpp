#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "perfbench/src/bench.h"
#include "src/eval/metrics.h"
#include "src/nn/checkpoint.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/wcnn.h"
#include "src/util/query_cache.h"
#include "src/util/rng.h"

namespace perfbench {

using namespace advtext;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double tail_percentile(std::size_t samples) {
  if (samples < 40) return 0.0;
  return std::floor(100.0 * static_cast<double>(samples - 10) /
                    static_cast<double>(samples));
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // process started from a larger parent (python3 run.py) would report the
  // parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
}

void add_latency_metrics(RunResult& result, const std::string& prefix,
                         const std::vector<double>& samples_ms) {
  const double p = tail_percentile(samples_ms.size());
  std::fprintf(stderr,
               "perfbench: %s over %zu samples; tail is p%.0f\n",
               prefix.c_str(), samples_ms.size(), p);
  result.add(prefix + "_p50_ms", median(samples_ms), "ms");
  result.add(prefix + "_tail_ms",
             p > 0.0 ? percentile(samples_ms, p) : median(samples_ms), "ms");
}

namespace {

std::unique_ptr<TrainableClassifier> make_model(Family family,
                                                const SynthTask& task) {
  // Initialisation seeds as in the repository's benches.
  const std::uint64_t init = task.config.seed + 2;
  switch (family) {
    case Family::kLstm: {
      LstmConfig config;
      config.embed_dim = task.config.embedding_dim;
      config.hidden = 24;
      config.seed = init;
      return std::make_unique<LstmClassifier>(config, Matrix(task.paragram));
    }
    case Family::kGru: {
      GruConfig config;
      config.embed_dim = task.config.embedding_dim;
      config.hidden = 24;
      config.seed = init;
      return std::make_unique<GruClassifier>(config, Matrix(task.paragram));
    }
    case Family::kWcnn:
      break;
  }
  WCnnConfig config;
  config.embed_dim = task.config.embedding_dim;
  config.num_filters = 32;
  config.seed = init;
  return std::make_unique<WCnn>(config, Matrix(task.paragram));
}

std::uint64_t hash_params(TrainableClassifier& model) {
  std::uint64_t h = kFnv1a64Seed;
  for (const ParamRef& p : model.params()) {
    h = fnv1a64_append(h, p.value, p.size * sizeof(float));
  }
  return h;
}

}  // namespace

Trained build_trained(Family family, SynthTask (*make_task)(),
                      std::uint64_t seed, bool shuffle_test) {
  Trained t;
  double start = now_s();
  t.task = std::make_unique<SynthTask>(make_task());
  if (shuffle_test) {
    std::vector<Document>& docs = t.task->test.docs;
    std::vector<Document> shuffled;
    shuffled.reserve(docs.size());
    Rng rng(derive_seed(seed, 1));
    for (const std::size_t i : rng.permutation(docs.size())) {
      shuffled.push_back(std::move(docs[i]));
    }
    docs = std::move(shuffled);
  }
  t.task_gen_s = now_s() - start;

  start = now_s();
  t.model = make_model(family, *t.task);
  TrainConfig train;
  train.epochs = 12;
  // BPTT over long documents is only stable at the lower rate (the
  // repository's bench and CLI defaults).
  train.learning_rate = family == Family::kWcnn ? 1e-2 : 5e-3;
  t.report = train_classifier(*t.model, t.task->train, train);
  t.train_s = now_s() - start;

  start = now_s();
  t.context = std::make_unique<TaskAttackContext>(*t.task);
  t.context_s = now_s() - start;

  const std::size_t docs = t.task->train.docs.size();
  t.train_examples =
      docs - static_cast<std::size_t>(train.validation_fraction *
                                      static_cast<double>(docs));
  t.test_accuracy = classification_accuracy(*t.model, t.task->test);
  t.param_hash = hash_params(*t.model);
  return t;
}

std::unique_ptr<TextClassifier> replicate(const Trained& trained,
                                          Family family) {
  std::unique_ptr<TrainableClassifier> replica =
      make_model(family, *trained.task);
  copy_model_params(*trained.model, *replica);
  return replica;
}

void time_candidates(const std::vector<DocRecord>& records,
                     const Trained& trained, bool sentences, bool use_lm,
                     LayerReport& layers) {
  const TaskAttackContext& context = *trained.context;
  for (const DocRecord& record : records) {
    if (record.kind != 1) continue;
    const Document& doc = trained.task->test.docs[record.doc_index];
    if (sentences) {
      const double start = now_s();
      const auto sets = context.paraphraser().neighbor_sets(doc, context.wmd());
      layers.sentence_busy_s += now_s() - start;
      layers.sentence_calls += 1.0;
      for (const auto& set : sets) {
        layers.sentence_cands += static_cast<double>(set.size());
      }
    }
    const double start = now_s();
    const auto lists = context.word_index().candidates_for(
        doc.flatten(), use_lm ? &context.lm() : nullptr);
    layers.word_busy_s += now_s() - start;
    layers.word_calls += 1.0;
    for (const auto& list : lists) {
      layers.word_cands += static_cast<double>(list.size());
    }
  }
}

void add_records(const std::vector<DocRecord>& records, LayerReport& layers) {
  for (const DocRecord& r : records) {
    if (r.kind != 1) continue;
    layers.wmd_degraded +=
        static_cast<double>(r.wmd_to_sinkhorn + r.wmd_to_lower);
    layers.queries += static_cast<double>(r.attack.queries);
    layers.cache_hits += static_cast<double>(r.attack.cache_hits);
    layers.cache_misses += static_cast<double>(r.attack.cache_misses);
    layers.attack_busy_s += r.attack.seconds;
    layers.attacked_docs += 1.0;
    layers.words_changed += static_cast<double>(r.attack.words_changed);
    layers.sentences_changed +=
        static_cast<double>(r.attack.sentences_changed);
  }
}

double attack_scoring_s(const ScoringStats& scoring) {
  return scoring.rebase.busy_s() + scoring.swap_batch.busy_s() +
         scoring.tokens_batch.busy_s() + scoring.gradient.busy_s();
}

std::size_t attacked(const std::vector<DocRecord>& records) {
  std::size_t n = 0;
  for (const DocRecord& r : records) n += r.kind != 0 ? 1 : 0;
  return n;
}

void add_layer_metrics(RunResult& r, const LayerReport& l) {
  r.add("data.task_gen_s", l.task_gen_s, "s");
  r.add("nn.train.busy_s", l.train_busy_s, "s");
  r.add("nn.train.docs", l.train_docs, "count");
  r.add("nn.train.docs_per_s",
        l.train_busy_s > 0.0 ? l.train_docs / l.train_busy_s : 0.0, "1/s");
  r.add("text.context_build_s", l.context_build_s, "s");
  r.add("text.sentence_sets.calls", l.sentence_calls, "count");
  r.add("text.sentence_sets.busy_s", l.sentence_busy_s, "s");
  r.add("text.sentence_sets.candidates", l.sentence_cands, "count");
  r.add("text.word_candidates.calls", l.word_calls, "count");
  r.add("text.word_candidates.busy_s", l.word_busy_s, "s");
  r.add("text.word_candidates.candidates", l.word_cands, "count");
  r.add("text.wmd.degraded", l.wmd_degraded, "count");

  ScoringStats none;
  const ScoringStats& s = l.scoring != nullptr ? *l.scoring : none;
  const auto count = [](const std::atomic<std::uint64_t>& v) {
    return static_cast<double>(v.load(std::memory_order_relaxed));
  };
  r.add("nn.rebase.calls", count(s.rebase.calls), "count");
  r.add("nn.rebase.busy_s", s.rebase.busy_s(), "s");
  r.add("nn.swap_batch.calls", count(s.swap_batch.calls), "count");
  r.add("nn.swap_batch.rows", count(s.swap_batch.rows), "count");
  r.add("nn.swap_batch.busy_s", s.swap_batch.busy_s(), "s");
  r.add("nn.swap_batch.rows_per_call",
        count(s.swap_batch.calls) > 0.0
            ? count(s.swap_batch.rows) / count(s.swap_batch.calls)
            : 0.0,
        "1");
  r.add("nn.tokens_batch.calls", count(s.tokens_batch.calls), "count");
  r.add("nn.tokens_batch.rows", count(s.tokens_batch.rows), "count");
  r.add("nn.tokens_batch.busy_s", s.tokens_batch.busy_s(), "s");
  r.add("nn.gradient.calls", count(s.gradient.calls), "count");
  r.add("nn.gradient.busy_s", s.gradient.busy_s(), "s");
  r.add("nn.predict.calls", count(s.predict.calls), "count");
  r.add("nn.predict.busy_s", s.predict.busy_s(), "s");

  r.add("core.queries", l.queries, "count");
  r.add("core.cache_hits", l.cache_hits, "count");
  r.add("core.cache_misses", l.cache_misses, "count");
  r.add("core.cache_hit_ratio", l.queries > 0.0 ? l.cache_hits / l.queries : 0.0,
        "1");
  r.add("core.attack.busy_s", l.attack_busy_s, "s");
  r.add("core.self_s",
        l.attack_busy_s - l.attack_nn_busy_s - l.sentence_busy_s -
            l.word_busy_s,
        "s");
  const double docs = l.attacked_docs > 0.0 ? l.attacked_docs : 1.0;
  r.add("core.words_changed_per_doc", l.words_changed / docs, "1");
  r.add("core.sentences_changed_per_doc", l.sentences_changed / docs, "1");

  r.add("eval.sweep_s", l.sweep_s, "s");
  r.add("eval.worker_busy_ratio", l.worker_busy_ratio, "1");
  r.add("eval.checkpoint_write_failures", l.checkpoint_write_failures,
        "count");

  r.add("service.ack_ms.p50", l.ack_ms_p50, "ms");
  r.add("service.first_result_ms.p50", l.first_result_ms_p50, "ms");
  r.add("service.doc_gap_ms.p50", l.doc_gap_ms_p50, "ms");
  r.add("service.jobs_completed", l.jobs_completed, "count");
  r.add("service.jobs_rejected", l.jobs_rejected, "count");
  r.add("service.io_retries", l.io_retries, "count");
  r.add("service.stream_write_failures", l.stream_write_failures, "count");
  r.add("service.jobs_stalled", l.jobs_stalled, "count");

  r.add("trace.docs_per_s", l.traced_docs_per_s, "1/s");
  r.add("trace.untraced_docs_per_s", l.untraced_docs_per_s, "1/s");
}

}  // namespace perfbench
