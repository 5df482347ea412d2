// Shared vocabulary of the repository benchmark: run options, the result
// line, summary statistics, the set-up every workload repeats, and the
// per-layer report of a traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/eval/pipeline.h"
#include "src/nn/trainer.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the daemon's socket and state (relative to the
  /// working directory keeps the AF_UNIX path short).
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the operation counts, the metrics of the selected
/// mode, the check failures, and the workload's size for the stamp line.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::string size;  ///< workload size, e.g. "docs_per_round=40"

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& problem) { problems.push_back(problem); }
};

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Derives an independent 64-bit value from the workload seed and a
/// per-purpose salt (splitmix64 finaliser), so one --seed drives every
/// generator of a workload without two of them sharing a stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

double median(std::vector<double> values);

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p);

/// The highest whole percentile that leaves at least ten samples above it
/// (0 when there are fewer than 40 samples: such a tail is no tail).
double tail_percentile(std::size_t samples);

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// The sample median and tail of a latency series; the tail percentile is
/// logged so the reader knows which one it is.
void add_latency_metrics(RunResult& result, const std::string& prefix,
                         const std::vector<double>& samples_ms);

/// Set-up repetitions per run; setup_s is their median (one repetition
/// varies by up to ±20% with LSTM training alone).
inline constexpr std::size_t kSetupRepeats = 3;

/// Model family under attack.
enum class Family { kLstm, kGru, kWcnn };

/// One set-up: a generated task, a model trained on it from scratch, and
/// the attack context, with the time each step took. Heap-held pieces keep
/// their addresses, which the context and the daemon refer to.
struct Trained {
  std::unique_ptr<advtext::SynthTask> task;
  std::unique_ptr<advtext::TrainableClassifier> model;
  std::unique_ptr<advtext::TaskAttackContext> context;
  advtext::TrainReport report;
  double task_gen_s = 0.0;
  double train_s = 0.0;
  double context_s = 0.0;
  std::size_t train_examples = 0;  ///< per epoch (validation held out)
  double test_accuracy = 0.0;
  std::uint64_t param_hash = 0;    ///< FNV-1a over the trained weights

  double setup_s() const { return task_gen_s + train_s + context_s; }
};

/// Generates the task with `make_task()`, puts its test documents in an
/// order drawn from `seed` when `shuffle_test`, trains a model of `family`
/// on it, and builds the attack context.
Trained build_trained(Family family, advtext::SynthTask (*make_task)(),
                      std::uint64_t seed, bool shuffle_test);

/// A bitwise replica of `trained`'s model (sweep workers).
std::unique_ptr<advtext::TextClassifier> replicate(const Trained& trained,
                                                   Family family);

/// Per-layer figures of a traced run. Every field is printed on every
/// workload; a layer a workload does not reach reads 0.
struct LayerReport {
  double task_gen_s = 0.0;
  double train_busy_s = 0.0;
  double train_docs = 0.0;
  double context_build_s = 0.0;
  double sentence_calls = 0.0, sentence_busy_s = 0.0, sentence_cands = 0.0;
  double word_calls = 0.0, word_busy_s = 0.0, word_cands = 0.0;
  double wmd_degraded = 0.0;
  const ScoringStats* scoring = nullptr;
  /// Scoring time inside the attacks that core.self_s subtracts (the
  /// evaluator hooks and gradients of the attacks behind attack_busy_s).
  double attack_nn_busy_s = 0.0;
  double queries = 0.0, cache_hits = 0.0, cache_misses = 0.0;
  double attack_busy_s = 0.0;
  double attacked_docs = 0.0;
  double words_changed = 0.0, sentences_changed = 0.0;
  double sweep_s = 0.0;
  double worker_busy_ratio = 0.0;
  double checkpoint_write_failures = 0.0;
  double ack_ms_p50 = 0.0, first_result_ms_p50 = 0.0, doc_gap_ms_p50 = 0.0;
  double jobs_completed = 0.0, jobs_rejected = 0.0;
  double io_retries = 0.0, stream_write_failures = 0.0, jobs_stalled = 0.0;
  double traced_docs_per_s = 0.0;
  double untraced_docs_per_s = 0.0;
};

void add_layer_metrics(RunResult& result, const LayerReport& layers);

/// Adds the attack counts and times of every attacked record to `layers`.
void add_records(const std::vector<advtext::DocRecord>& records,
                 LayerReport& layers);

/// Scoring time spent inside the attacks: evaluator construction and
/// rebases, swap and token batches, and gradients.
double attack_scoring_s(const ScoringStats& scoring);

/// Records whose document was attacked (kind 1) or whose attack threw.
std::size_t attacked(const std::vector<advtext::DocRecord>& records);

/// Times SentenceParaphraser::neighbor_sets (when `sentences`) and
/// ParaphraseIndex::candidates_for on the original text of every attacked
/// record, apart from the attack, into `layers`.
void time_candidates(const std::vector<advtext::DocRecord>& records,
                     const Trained& trained, bool sentences, bool use_lm,
                     LayerReport& layers);

RunResult run_sweep(const Options& options);
RunResult run_serve(const Options& options);

}  // namespace perfbench
