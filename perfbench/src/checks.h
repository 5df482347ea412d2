// Correctness checks of the benchmark. Each check compares the program's
// output with a property the method must have or with a computation made
// apart from the code under test, and appends a problem line when it does
// not hold. self_test() feeds every check a deliberately wrong variant of a
// real output and requires the check to flag it, so a check that cannot
// fail is itself reported as a problem.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/nn/trainer.h"
#include "src/service/protocol.h"
#include "src/text/paraphrase_index.h"

namespace perfbench {

/// The attack settings the per-document checks hold records to.
struct AttackSpec {
  double tau = 0.7;
  double lambda_s = 0.0;  ///< 0 = no sentence phase
  double lambda_w = 0.2;
};

/// Everything a per-record check needs to recompute from outside the code
/// under test. `word_index` is set when substitutions are checked
/// (word-only attacks, where positions line up one to one).
struct RecordContext {
  const advtext::SynthTask* task = nullptr;
  const advtext::TextClassifier* model = nullptr;  ///< the bare model
  AttackSpec spec;
  const advtext::ParaphraseIndex* word_index = nullptr;
};

/// Success re-scored with a fresh predict_proba, change budgets, and (with
/// a word index) substitutions of one committed record.
void check_record(const advtext::DocRecord& record, const RecordContext& ctx,
                  std::vector<std::string>& problems);

/// Hits plus misses equal queries for one attacked document (in-process
/// records only: the wire encoding carries no cache counters).
void check_query_accounting(const advtext::DocRecord& record,
                            std::vector<std::string>& problems);

/// The sweep's clean accuracy against the benchmark's own argmax count.
void check_clean_accuracy(double reported, const advtext::TextClassifier& model,
                          const advtext::Dataset& test,
                          std::vector<std::string>& problems);

/// Test accuracy clears the majority-class rate by kTrainingMargin and the
/// final training loss is finite.
void check_training(const advtext::TrainReport& report, double test_accuracy,
                    const advtext::Dataset& test,
                    std::vector<std::string>& problems);

/// Two record streams are equal, timing excluded (wire encoding compared
/// byte for byte).
void check_same_records(const std::vector<advtext::DocRecord>& expected,
                        const std::vector<advtext::DocRecord>& actual,
                        const std::string& what,
                        std::vector<std::string>& problems);

/// A served job completed kSucceeded with `expected_docs` records in
/// ascending document order.
void check_job(const advtext::JobComplete& complete,
               const std::vector<advtext::DocRecord>& records,
               std::size_t expected_docs, std::vector<std::string>& problems);

/// Real outputs of one run for the self-test to corrupt. Any pointer may be
/// null when the workload does not produce that kind of output; the matching
/// checks are then not exercised by this run.
struct SelfTestInputs {
  const RecordContext* ctx = nullptr;
  const std::vector<advtext::DocRecord>* records = nullptr;
  double clean_accuracy = 0.0;
  const advtext::TrainReport* train_report = nullptr;
  double test_accuracy = 0.0;
  const advtext::JobComplete* job = nullptr;
  const std::vector<advtext::DocRecord>* job_records = nullptr;
  std::size_t job_docs = 0;
};

/// Runs every applicable check on corrupted copies of `inputs`; returns how
/// many corruptions were fed and appends a problem for each one a check
/// failed to flag.
std::size_t self_test(const SelfTestInputs& inputs,
                      std::vector<std::string>& problems);

}  // namespace perfbench
