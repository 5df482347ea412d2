// The two sweep workloads: the paper's joint attack on News/LSTM with one
// worker (sweep_lstm), and the Kuleshov objective greedy on Trec07p/GRU with
// two workers (greedy_gru). One round sweeps the whole test set, in an order
// drawn from the seed; a run repeats whole rounds until its time is up.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/checks.h"

namespace perfbench {

namespace {

using namespace advtext;

struct SweepWorkload {
  Family family;
  SynthTask (*make_task)();
  JointAttackConfig joint;
  std::size_t threads;
};

SweepWorkload workload_named(const std::string& name) {
  SweepWorkload w;
  if (name == "sweep_lstm") {
    // Alg. 1: sentence phase, then gradient-guided greedy words, LM on.
    w.family = Family::kLstm;
    w.make_task = [] { return make_news(); };
    w.joint.sentence_fraction = 0.2;
    w.joint.word_fraction = 0.2;
    w.joint.word_method = WordAttackMethod::kGradientGuidedGreedy;
    w.joint.use_lm_filter = true;
    w.threads = 1;
  } else {
    // Kuleshov et al.: word-only objective greedy, λw = 0.5, no LM filter
    // (the paper disables it on Trec07p's corrupted tokens).
    w.family = Family::kGru;
    w.make_task = [] { return make_trec07p(); };
    w.joint.enable_sentence = false;
    w.joint.word_fraction = 0.5;
    w.joint.word_method = WordAttackMethod::kObjectiveGreedy;
    w.joint.use_lm_filter = false;
    w.threads = 2;
  }
  return w;
}

/// One round's committed records and the sweep's own aggregate.
struct Round {
  std::vector<DocRecord> records;
  AttackEvalResult result;
  double wall_s = 0.0;
};

Round sweep_round(const TextClassifier& model, const Trained& trained,
                  const SweepWorkload& w,
                  std::function<std::unique_ptr<TextClassifier>()> replica) {
  AttackEvalConfig config;
  config.joint = w.joint;
  config.threads = w.threads;
  config.make_model_replica = std::move(replica);
  Round round;
  config.on_commit = [&round](const DocRecord& r) {
    round.records.push_back(r);
  };
  const double start = now_s();
  round.result = evaluate_attack(model, *trained.task, *trained.context, config);
  round.wall_s = now_s() - start;
  return round;
}

}  // namespace

RunResult run_sweep(const Options& options) {
  const SweepWorkload w = workload_named(options.workload);
  RunResult out;

  // ---- Set-up, repeated; training is deterministic, so every repetition
  // must produce the same weights.
  std::vector<std::string>& problems = out.problems;
  std::vector<double> setups;
  Trained trained;
  std::uint64_t first_hash = 0;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    trained = Trained{};  // release the previous repetition first
    trained = build_trained(w.family, w.make_task, options.seed,
                            /*shuffle_test=*/true);
    setups.push_back(trained.setup_s());
    if (rep == 0) first_hash = trained.param_hash;
    if (trained.param_hash != first_hash) {
      problems.push_back("set-up " + std::to_string(rep + 1) +
                         " trained different weights from the same seed");
    }
  }

  const auto make_replica = [&]() -> std::unique_ptr<TextClassifier> {
    return replicate(trained, w.family);
  };

  // ---- Timed phase: whole rounds until the time is up.
  std::vector<DocRecord> reference;
  AttackEvalResult first_result;
  std::vector<double> latencies_ms;
  double sweep_s = 0.0;
  std::size_t docs = 0;
  std::size_t rounds = 0;
  const double start = now_s();
  do {
    Round round = sweep_round(*trained.model, trained, w, make_replica);
    sweep_s += round.wall_s;
    std::fprintf(stderr, "perfbench: round %zu took %.4f s\n", rounds + 1,
                 round.wall_s);
    docs += attacked(round.records);
    for (const DocRecord& r : round.records) {
      if (r.kind == 1) latencies_ms.push_back(r.attack.seconds * 1e3);
    }
    if (rounds == 0) {
      reference = std::move(round.records);
      first_result = round.result;
    } else {
      check_same_records(reference, round.records,
                         "round " + std::to_string(rounds + 1), problems);
    }
    ++rounds;
  } while (now_s() - start < options.seconds);
  const double docs_per_s = static_cast<double>(docs) / sweep_s;

  // ---- Checks on the first round (every later round equals it).
  RecordContext ctx;
  ctx.task = trained.task.get();
  ctx.model = trained.model.get();
  ctx.spec.tau = w.joint.success_threshold;
  ctx.spec.lambda_s = w.joint.enable_sentence ? w.joint.sentence_fraction : 0.0;
  ctx.spec.lambda_w = w.joint.word_fraction;
  // Word-only: positions line up, so every substitution can be looked up.
  if (!w.joint.enable_sentence) {
    ctx.word_index = &trained.context->word_index();
  }
  std::size_t failed_docs = 0;
  double misses = 0.0;
  double successes = 0.0;
  for (const DocRecord& r : reference) {
    if (r.kind == 0) continue;
    std::vector<std::string> doc_problems;
    check_record(r, ctx, doc_problems);
    check_query_accounting(r, doc_problems);
    if (!doc_problems.empty()) ++failed_docs;
    for (const std::string& p : doc_problems) {
      std::fprintf(stderr, "perfbench: failed operation: %s\n", p.c_str());
    }
    misses += static_cast<double>(r.attack.cache_misses);
    successes += r.attack.success ? 1.0 : 0.0;
  }
  check_clean_accuracy(first_result.clean_accuracy, *trained.model,
                       trained.task->test, problems);
  check_training(trained.report, trained.test_accuracy, trained.task->test,
                 problems);

  const std::size_t per_round = attacked(reference);
  out.size = "test_docs=" + std::to_string(trained.task->test.docs.size()) +
             " attacked_per_round=" + std::to_string(per_round) +
             " threads=" + std::to_string(w.threads);
  out.attempted = per_round * rounds;
  out.failed = failed_docs * rounds;
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu rounds of %zu attacked docs, "
               "clean accuracy %.4f, test accuracy %.4f, %zu epochs\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), rounds,
               per_round, first_result.clean_accuracy, trained.test_accuracy,
               trained.report.epochs_run);

  if (!options.trace) {
    out.add("setup_s", median(setups), "s");
    out.add("docs_per_s", docs_per_s, "1/s");
    add_latency_metrics(out, "job_latency", latencies_ms);
    out.add("model_evals_per_doc",
            misses / static_cast<double>(per_round), "1");
    out.add("attack_success_rate",
            successes / static_cast<double>(per_round), "1");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  }

  SelfTestInputs self;
  self.ctx = &ctx;
  self.records = &reference;
  self.clean_accuracy = first_result.clean_accuracy;
  self.train_report = &trained.report;
  self.test_accuracy = trained.test_accuracy;
  const std::size_t corruptions = self_test(self, problems);
  std::fprintf(stderr, "perfbench: self-test fed %zu corrupted outputs to the "
               "checks\n", corruptions);

  if (!options.trace) return out;

  // ---- Traced round: the same sweep through forwarding models.
  ScoringStats scoring;
  TracedClassifier traced(*trained.model, scoring);
  const auto traced_replica = [&]() -> std::unique_ptr<TextClassifier> {
    return std::make_unique<TracedClassifier>(make_replica(), scoring);
  };
  Round round = sweep_round(traced, trained, w, traced_replica);
  check_same_records(reference, round.records, "traced round", problems);
  out.attempted += per_round;
  out.failed += failed_docs;

  LayerReport layers;
  layers.task_gen_s = trained.task_gen_s;
  layers.train_busy_s = trained.train_s;
  layers.train_docs = static_cast<double>(trained.train_examples *
                                          trained.report.epochs_run);
  layers.context_build_s = trained.context_s;
  time_candidates(round.records, trained, w.joint.enable_sentence,
                  w.joint.use_lm_filter, layers);
  layers.scoring = &scoring;
  layers.attack_nn_busy_s = attack_scoring_s(scoring);
  add_records(round.records, layers);
  layers.sweep_s = round.wall_s;
  layers.worker_busy_ratio =
      layers.attack_busy_s /
      (round.wall_s * static_cast<double>(w.threads));
  layers.checkpoint_write_failures =
      static_cast<double>(round.result.checkpoint_write_failures);
  layers.traced_docs_per_s =
      static_cast<double>(attacked(round.records)) / round.wall_s;
  layers.untraced_docs_per_s = docs_per_s;
  add_layer_metrics(out, layers);
  return out;
}

}  // namespace perfbench
