// serve_wcnn: an AttackDaemon in this process serves a 32-filter WCNN on
// Yelp with two daemon workers; three closed-loop clients send jobs of a
// few documents each over AF_UNIX, each client cycling the three word
// methods. One round is one job per method per client; a run repeats whole
// rounds until its time is up. Every job attacks the same prefix of the
// test set (the protocol has no document selector), so every job of one
// method must stream the records a direct evaluate_attack of the same
// request commits.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/checks.h"
#include "src/service/daemon.h"
#include "src/service/net.h"
#include "src/util/stop_token.h"
#include "src/util/sync.h"

namespace perfbench {

namespace {

using namespace advtext;

constexpr std::size_t kClients = 3;
constexpr std::size_t kDaemonWorkers = 2;
constexpr std::size_t kDocsPerJob = 4;
constexpr std::uint64_t kMethods = 3;  // JobRequest::method 0, 1, 2
constexpr double kListenTimeoutS = 10.0;
const char* const kModelName = "wcnn";

/// The daemon's own mapping of JobRequest::method (src/service/daemon.cpp).
WordAttackMethod method_of(std::uint64_t method) {
  switch (method) {
    case 1:
      return WordAttackMethod::kObjectiveGreedy;
    case 2:
      return WordAttackMethod::kGradient;
    default:
      return WordAttackMethod::kGradientGuidedGreedy;
  }
}

JobRequest request_for(std::size_t client, std::uint64_t method) {
  JobRequest request;
  request.client = "client" + std::to_string(client);
  request.model = kModelName;
  request.max_docs = kDocsPerJob;
  request.method = method;  // λs = λw = 0.2, no deadline, no budget
  return request;
}

/// An AttackDaemon serving one model from a background thread, listening
/// once constructed. stop() drains it and removes its directory.
class RunningDaemon {
 public:
  RunningDaemon(const Trained& trained, const TextClassifier& model,
                const std::string& dir)
      : dir_(dir) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    DaemonConfig config;
    config.socket_path = dir_ + "/d.sock";
    config.state_dir = dir_ + "/state";
    config.workers = kDaemonWorkers;
    socket_ = config.socket_path;
    daemon_ = std::make_unique<AttackDaemon>(
        *trained.task, *trained.context,
        std::vector<ServedModel>{ServedModel{kModelName, &model}}, config);
    runner_ = std::make_unique<ThreadPool>(1);
    (void)runner_->submit([this] {
      try {
        (void)daemon_->serve();
      } catch (const std::exception& error) {
        error_ = error.what();
      }
    });
    // Listening means a client can connect; the probe closes at once,
    // which the daemon reads as a clean end of conversation.
    const double start = now_s();
    while (true) {
      try {
        Connection probe = connect_unix(socket_);
        break;
      } catch (const std::runtime_error&) {
        if (now_s() - start > kListenTimeoutS) {
          stop();
          throw std::runtime_error("daemon did not listen on " + socket_);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }

  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;

  ~RunningDaemon() {
    if (daemon_ == nullptr) return;
    try {
      (void)stop();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: %s\n", error.what());
    }
  }

  const std::string& socket() const { return socket_; }

  /// Drains the daemon (no job may be in flight), joins its thread and
  /// returns its counters.
  DaemonStats stop() {
    StopToken::instance().request_stop();
    runner_->wait_idle();
    runner_.reset();
    StopToken::instance().clear();
    const DaemonStats stats = daemon_->stats();
    daemon_.reset();
    std::filesystem::remove_all(dir_);
    if (!error_.empty()) throw std::runtime_error("daemon: " + error_);
    return stats;
  }

 private:
  std::string dir_;
  std::string socket_;
  std::unique_ptr<AttackDaemon> daemon_;
  std::unique_ptr<ThreadPool> runner_;
  std::string error_;  ///< written by the runner, read after it is joined
};


/// The direct sweep of one method's request, as the daemon configures it
/// (one worker, default query cache), through `model`.
struct Direct {
  std::vector<DocRecord> records;
  AttackEvalResult result;
  double wall_s = 0.0;
};

Direct sweep_directly(const TextClassifier& model, const Trained& trained,
                      std::uint64_t method) {
  const JobRequest request = request_for(0, method);
  AttackEvalConfig config;
  config.joint.sentence_fraction = request.sentence_fraction;
  config.joint.word_fraction = request.word_fraction;
  config.joint.word_method = method_of(method);
  config.max_docs = static_cast<std::size_t>(request.max_docs);
  config.threads = 1;
  config.query_cache_bytes = DaemonConfig{}.query_cache_bytes;
  Direct direct;
  config.on_commit = [&direct](const DocRecord& r) {
    direct.records.push_back(r);
  };
  const double start = now_s();
  direct.result =
      evaluate_attack(model, *trained.task, *trained.context, config);
  direct.wall_s = now_s() - start;
  return direct;
}

/// What every served job is checked against: the direct sweep of each
/// method, and whether that sweep's records pass their own checks.
struct Expected {
  std::vector<Direct> direct;
  std::vector<bool> records_ok;
};

/// One job as its client saw it, checked as soon as it ended.
struct JobLog {
  std::uint64_t method = 0;
  bool completed = false;
  std::string error;
  double request_s = 0.0;  ///< just before the request frame is written
  double ack_s = 0.0;
  double done_s = 0.0;
  std::vector<double> doc_s;  ///< arrival of each DocResult
  JobComplete complete;
  /// Streamed records; kept only for each client's first job (self-test),
  /// so the benchmark's own memory does not grow with the run.
  std::vector<DocRecord> records;
  std::size_t attacked = 0;
  std::size_t successes = 0;
  std::vector<std::string> problems;  ///< empty: the job is correct
};

JobLog run_job(const std::string& socket, std::size_t client,
               std::uint64_t method) {
  JobLog log;
  log.method = method;
  try {
    Connection conn = connect_unix(socket);
    conn.set_read_timeout_ms(120000.0);
    log.request_s = now_s();
    conn.write_frame(encode_job_request(request_for(client, method)));
    std::string payload;
    while (conn.read_frame(payload)) {
      switch (peek_type(payload)) {
        case MessageType::kJobAccepted:
          log.ack_s = now_s();
          break;
        case MessageType::kDocResult:
          log.doc_s.push_back(now_s());
          log.records.push_back(decode_doc_result(payload));
          break;
        case MessageType::kJobRejected:
          log.error = std::string("rejected: ") +
                      to_string(decode_job_rejected(payload).reason);
          return log;
        case MessageType::kJobComplete:
          log.done_s = now_s();
          log.complete = decode_job_complete(payload);
          log.completed = true;
          return log;
        default:
          log.error = "unexpected frame";
          return log;
      }
    }
    log.error = "connection closed before JobComplete";
  } catch (const std::exception& error) {
    log.error = error.what();
  }
  return log;
}

/// Checks one served job against the direct sweep of its request. A job
/// fails when it did not complete, when any of its checks does not hold, or
/// when its method's records fail theirs.
void check_served(JobLog& job, const Expected& expected) {
  std::vector<std::string>& problems = job.problems;
  if (!job.completed) {
    problems.push_back("job did not complete: " + job.error);
    return;
  }
  const Direct& direct = expected.direct[job.method];
  const std::string tag = "job " + std::to_string(job.complete.job_id);
  check_job(job.complete, job.records, kDocsPerJob, problems);
  check_same_records(direct.records, job.records,
                     tag + " against the direct sweep", problems);
  std::uint64_t queries = 0;
  for (const DocRecord& r : job.records) {
    if (r.kind != 0) ++job.attacked;
    if (r.kind == 1 && r.attack.success) ++job.successes;
    if (r.kind == 1) queries += r.attack.queries;
  }
  if (job.complete.cache_hits + job.complete.cache_misses != queries) {
    problems.push_back(tag + ": cache hits + misses != queries of its "
                             "records");
  }
  if (job.complete.cache_hits != direct.result.cache_hits ||
      job.complete.cache_misses != direct.result.cache_misses ||
      job.complete.docs_attacked != direct.result.docs_attacked) {
    problems.push_back(tag + ": cache or attack counts differ from the "
                             "direct sweep");
  }
  if (!expected.records_ok[job.method]) {
    problems.push_back(tag + ": a record fails its checks");
  }
}

/// Runs the clients in closed loop: each sends one job per method, in an
/// order rotated by the seed, and repeats such rounds until `seconds` have
/// passed (a single round when seconds <= 0). Each client checks its jobs
/// as they end.
std::vector<JobLog> run_clients(const std::string& socket, std::uint64_t seed,
                                double seconds, const Expected& expected) {
  std::vector<std::vector<JobLog>> per_client(kClients);
  {
    ThreadPool clients(kClients);
    const double start = now_s();
    for (std::size_t c = 0; c < kClients; ++c) {
      const std::uint64_t offset = derive_seed(seed, 2 + c) % kMethods;
      (void)clients.submit([&, c, offset] {
        do {
          for (std::uint64_t k = 0; k < kMethods; ++k) {
            JobLog job = run_job(socket, c, (offset + k) % kMethods);
            check_served(job, expected);
            if (!per_client[c].empty()) job.records = {};
            per_client[c].push_back(std::move(job));
          }
        } while (now_s() - start < seconds);
      });
    }
    clients.wait_idle();
  }
  std::vector<JobLog> jobs;
  for (auto& logs : per_client) {
    for (JobLog& log : logs) jobs.push_back(std::move(log));
  }
  return jobs;
}

/// Totals of one phase of served jobs.
struct Served {
  std::size_t docs = 0;
  double misses = 0.0;
  double successes = 0.0;
  double wall_s = 0.0;  ///< first request to last JobComplete
  std::vector<double> latency_ms, ack_ms, first_result_ms, doc_gap_ms;
};

/// Counts every job as one operation of `out` and sums the completed ones.
Served tally(const std::vector<JobLog>& jobs, RunResult& out) {
  Served s;
  double first_request = 0.0;
  double last_done = 0.0;
  for (const JobLog& job : jobs) {
    ++out.attempted;
    if (!job.problems.empty()) {
      ++out.failed;
      for (const std::string& p : job.problems) {
        std::fprintf(stderr, "perfbench: failed operation: %s\n", p.c_str());
      }
    }
    if (!job.completed) continue;
    if (first_request == 0.0 || job.request_s < first_request) {
      first_request = job.request_s;
    }
    if (job.done_s > last_done) last_done = job.done_s;
    s.docs += job.attacked;
    s.misses += static_cast<double>(job.complete.cache_misses);
    s.successes += static_cast<double>(job.successes);
    s.latency_ms.push_back((job.done_s - job.request_s) * 1e3);
    s.ack_ms.push_back((job.ack_s - job.request_s) * 1e3);
    if (!job.doc_s.empty()) {
      s.first_result_ms.push_back((job.doc_s.front() - job.request_s) * 1e3);
    }
    for (std::size_t i = 1; i < job.doc_s.size(); ++i) {
      s.doc_gap_ms.push_back((job.doc_s[i] - job.doc_s[i - 1]) * 1e3);
    }
  }
  s.wall_s = last_done - first_request;
  return s;
}

}  // namespace

RunResult run_serve(const Options& options) {
  RunResult out;
  std::vector<std::string>& problems = out.problems;
  const std::string base = options.work_dir + "/serve-" +
                           std::to_string(static_cast<long>(::getpid()));

  // ---- Set-up, repeated: task, training, context, daemon to listening.
  std::vector<double> setups;
  Trained trained;
  std::unique_ptr<RunningDaemon> daemon;
  std::uint64_t first_hash = 0;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    if (daemon != nullptr) (void)daemon->stop();
    daemon.reset();
    trained = Trained{};
    const double start = now_s();
    trained = build_trained(Family::kWcnn, [] { return make_yelp(); },
                            options.seed, /*shuffle_test=*/false);
    daemon = std::make_unique<RunningDaemon>(
        trained, *trained.model, base + "-" + std::to_string(rep));
    setups.push_back(now_s() - start);
    if (rep == 0) first_hash = trained.param_hash;
    if (trained.param_hash != first_hash) {
      problems.push_back("set-up " + std::to_string(rep + 1) +
                         " trained different weights from the same seed");
    }
  }

  // ---- The computation apart: each method's request swept directly, and
  // its records checked, before the clients start.
  Expected expected;
  RecordContext ctx;
  ctx.task = trained.task.get();
  ctx.model = trained.model.get();
  ctx.spec = {JointAttackConfig{}.success_threshold, 0.2, 0.2};
  for (std::uint64_t m = 0; m < kMethods; ++m) {
    expected.direct.push_back(sweep_directly(*trained.model, trained, m));
    std::vector<std::string> found;
    for (const DocRecord& r : expected.direct[m].records) {
      check_record(r, ctx, found);
      check_query_accounting(r, found);
    }
    for (const std::string& p : found) {
      std::fprintf(stderr, "perfbench: method %llu: %s\n",
                   static_cast<unsigned long long>(m), p.c_str());
    }
    expected.records_ok.push_back(found.empty());
  }
  const Direct& first_direct = expected.direct[0];
  check_clean_accuracy(first_direct.result.clean_accuracy, *trained.model,
                       trained.task->test, problems);
  check_training(trained.report, trained.test_accuracy, trained.task->test,
                 problems);

  // ---- Timed phase.
  const std::vector<JobLog> jobs =
      run_clients(daemon->socket(), options.seed, options.seconds, expected);
  const DaemonStats stats = daemon->stop();
  daemon.reset();
  const Served served = tally(jobs, out);
  const double docs_per_s = static_cast<double>(served.docs) / served.wall_s;
  out.size = "jobs=" + std::to_string(jobs.size()) +
             " docs_per_job=" + std::to_string(kDocsPerJob) +
             " clients=" + std::to_string(kClients) +
             " daemon_workers=" + std::to_string(kDaemonWorkers);
  std::fprintf(stderr,
               "perfbench: serve_wcnn seed %llu: %zu jobs, %zu attacked "
               "docs, test accuracy %.4f, %zu epochs\n",
               static_cast<unsigned long long>(options.seed), jobs.size(),
               served.docs, trained.test_accuracy,
               trained.report.epochs_run);

  SelfTestInputs self;
  self.ctx = &ctx;
  self.records = &first_direct.records;
  self.clean_accuracy = first_direct.result.clean_accuracy;
  self.train_report = &trained.report;
  self.test_accuracy = trained.test_accuracy;
  const JobLog& sample = jobs.front();  // kept its records
  if (sample.completed && sample.records.size() > 1) {
    self.job = &sample.complete;
    self.job_records = &sample.records;
    self.job_docs = kDocsPerJob;
  } else {
    problems.push_back("self-test: no served job to corrupt");
  }
  const std::size_t corruptions = self_test(self, problems);
  std::fprintf(stderr, "perfbench: self-test fed %zu corrupted outputs to the "
               "checks\n", corruptions);

  if (!options.trace) {
    out.add("setup_s", median(setups), "s");
    out.add("docs_per_s", docs_per_s, "1/s");
    add_latency_metrics(out, "job_latency", served.latency_ms);
    out.add("model_evals_per_doc",
            served.misses / static_cast<double>(served.docs), "1");
    out.add("attack_success_rate",
            served.successes / static_cast<double>(served.docs), "1");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // ---- Traced round: a daemon serving the forwarding model runs one round
  // of the same jobs, whose records must equal the direct sweeps'. The same
  // three requests are swept directly through a second forwarding model for
  // the attack layer's own time, which the wire does not carry.
  ScoringStats served_scoring;
  TracedClassifier served_model(*trained.model, served_scoring);
  std::vector<JobLog> traced_jobs;
  {
    RunningDaemon traced_daemon(trained, served_model, base + "-traced");
    traced_jobs =
        run_clients(traced_daemon.socket(), options.seed, 0.0, expected);
    (void)traced_daemon.stop();
  }
  const Served traced = tally(traced_jobs, out);

  ScoringStats direct_scoring;
  TracedClassifier direct_model(*trained.model, direct_scoring);
  LayerReport layers;
  for (std::uint64_t m = 0; m < kMethods; ++m) {
    const Direct swept = sweep_directly(direct_model, trained, m);
    check_same_records(expected.direct[m].records, swept.records,
                       "traced direct sweep", problems);
    time_candidates(swept.records, trained, /*sentences=*/true,
                    /*use_lm=*/true, layers);
    add_records(swept.records, layers);
    layers.sweep_s += swept.wall_s;
    layers.checkpoint_write_failures +=
        static_cast<double>(swept.result.checkpoint_write_failures);
  }
  layers.task_gen_s = trained.task_gen_s;
  layers.train_busy_s = trained.train_s;
  layers.train_docs = static_cast<double>(trained.train_examples *
                                          trained.report.epochs_run);
  layers.context_build_s = trained.context_s;
  layers.scoring = &served_scoring;
  layers.attack_nn_busy_s = attack_scoring_s(direct_scoring);
  layers.worker_busy_ratio = layers.attack_busy_s / layers.sweep_s;
  layers.ack_ms_p50 = median(served.ack_ms);
  layers.first_result_ms_p50 = median(served.first_result_ms);
  layers.doc_gap_ms_p50 = median(served.doc_gap_ms);
  layers.jobs_completed = static_cast<double>(stats.jobs_completed);
  layers.jobs_rejected = static_cast<double>(
      stats.rejected_overload + stats.rejected_budget +
      stats.rejected_unknown_model + stats.rejected_malformed +
      stats.rejected_resource);
  layers.io_retries = static_cast<double>(stats.io_retries);
  layers.stream_write_failures =
      static_cast<double>(stats.stream_write_failures);
  layers.jobs_stalled = static_cast<double>(stats.jobs_stalled);
  layers.traced_docs_per_s = static_cast<double>(traced.docs) / traced.wall_s;
  layers.untraced_docs_per_s = docs_per_s;
  add_layer_metrics(out, layers);
  return out;
}

}  // namespace perfbench
