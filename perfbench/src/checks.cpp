#include "perfbench/src/checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

using advtext::DocRecord;
using advtext::Document;
using advtext::TokenSeq;

/// Test accuracy must beat always predicting the majority class by this
/// much for a trained model to count as trained.
constexpr double kTrainingMargin = 0.10;

std::string doc_tag(const DocRecord& record) {
  return "doc " + std::to_string(record.doc_index);
}

std::size_t argmax(const advtext::Vector& proba) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < proba.size(); ++i) {
    if (proba[i] > proba[best]) best = i;
  }
  return best;
}

std::size_t budget(double fraction, std::size_t n) {
  return static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(n)));
}

std::string record_bytes(const DocRecord& record) {
  std::ostringstream out;
  advtext::write_record(out, record);
  return out.str();
}

/// True when `check` appends at least one problem for the corrupted input.
template <typename Check>
bool flags(Check&& check) {
  std::vector<std::string> found;
  check(found);
  return !found.empty();
}

}  // namespace

void check_record(const DocRecord& record, const RecordContext& ctx,
                  std::vector<std::string>& problems) {
  const auto& docs = ctx.task->test.docs;
  if (record.doc_index >= docs.size()) {
    problems.push_back(doc_tag(record) + ": index out of range");
    return;
  }
  const Document& doc = docs[record.doc_index];
  const std::size_t label = static_cast<std::size_t>(doc.label);
  const bool clean_correct =
      argmax(ctx.model->predict_proba(doc.flatten())) == label;
  if (record.kind == 0) {
    if (clean_correct) {
      problems.push_back(doc_tag(record) +
                         ": skipped as misclassified but the model is right");
    }
    return;
  }
  if (record.kind == 2) {
    problems.push_back(doc_tag(record) + ": attack threw: " + record.error);
    return;
  }
  if (!clean_correct) {
    problems.push_back(doc_tag(record) +
                       ": attacked although the model misclassifies it");
  }
  const advtext::JointAttackResult& attack = record.attack;
  const Document& adv = attack.adv_doc;
  const TokenSeq adv_tokens = adv.flatten();
  const std::size_t target = 1 - label;
  const advtext::Vector proba = ctx.model->predict_proba(adv_tokens);
  const bool reaches = proba[target] >= ctx.spec.tau;
  if (attack.success && !reaches) {
    problems.push_back(doc_tag(record) +
                       ": reported successful but re-scores target "
                       "probability " + std::to_string(proba[target]) +
                       " < tau");
  }
  if (!attack.success && reaches) {
    problems.push_back(doc_tag(record) +
                       ": reported unsuccessful but re-scores at tau");
  }
  if ((record.flipped != 0) != (argmax(proba) != label)) {
    problems.push_back(doc_tag(record) + ": flipped flag disagrees with "
                                         "a fresh prediction");
  }
  if (adv.label != doc.label) {
    problems.push_back(doc_tag(record) + ": adversarial label changed");
  }
  const std::size_t sentence_cap = budget(ctx.spec.lambda_s,
                                          doc.sentences.size());
  if (attack.sentences_changed > sentence_cap) {
    problems.push_back(doc_tag(record) + ": " +
                       std::to_string(attack.sentences_changed) +
                       " sentences changed > budget " +
                       std::to_string(sentence_cap));
  }
  const std::size_t word_cap = budget(ctx.spec.lambda_w, adv_tokens.size());
  if (attack.words_changed > word_cap) {
    problems.push_back(doc_tag(record) + ": " +
                       std::to_string(attack.words_changed) +
                       " words changed > budget " + std::to_string(word_cap));
  }
  if (ctx.spec.lambda_s > 0.0) return;

  // Word-only attack: positions line up one to one with the original, so
  // the changes can be recounted and each substitution looked up.
  const TokenSeq original = doc.flatten();
  if (original.size() != adv_tokens.size() ||
      adv.sentences.size() != doc.sentences.size()) {
    problems.push_back(doc_tag(record) +
                       ": word-only attack changed the document shape");
    return;
  }
  std::size_t changed = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (original[i] == adv_tokens[i]) continue;
    ++changed;
    if (ctx.word_index == nullptr) continue;
    const std::vector<advtext::WordId>& allowed =
        ctx.word_index->neighbors(original[i]);
    if (std::find(allowed.begin(), allowed.end(), adv_tokens[i]) ==
        allowed.end()) {
      problems.push_back(doc_tag(record) + ": word " +
                         std::to_string(adv_tokens[i]) + " at position " +
                         std::to_string(i) +
                         " is not a neighbour of the word it replaced");
    }
  }
  if (changed != attack.words_changed || changed > word_cap) {
    problems.push_back(doc_tag(record) + ": " + std::to_string(changed) +
                       " positions differ, reported " +
                       std::to_string(attack.words_changed) + ", budget " +
                       std::to_string(word_cap));
  }
}

void check_query_accounting(const DocRecord& record,
                            std::vector<std::string>& problems) {
  if (record.kind != 1) return;
  const advtext::JointAttackResult& attack = record.attack;
  if (attack.cache_hits + attack.cache_misses != attack.queries) {
    problems.push_back(doc_tag(record) + ": cache hits " +
                       std::to_string(attack.cache_hits) + " + misses " +
                       std::to_string(attack.cache_misses) + " != queries " +
                       std::to_string(attack.queries));
  }
}

void check_clean_accuracy(double reported, const advtext::TextClassifier& model,
                          const advtext::Dataset& test,
                          std::vector<std::string>& problems) {
  std::size_t right = 0;
  for (const Document& doc : test.docs) {
    if (argmax(model.predict_proba(doc.flatten())) ==
        static_cast<std::size_t>(doc.label)) {
      ++right;
    }
  }
  const double expected =
      static_cast<double>(right) / static_cast<double>(test.docs.size());
  if (reported != expected) {
    problems.push_back("clean accuracy " + std::to_string(reported) +
                       " != own count " + std::to_string(right) + "/" +
                       std::to_string(test.docs.size()));
  }
}

void check_training(const advtext::TrainReport& report, double test_accuracy,
                    const advtext::Dataset& test,
                    std::vector<std::string>& problems) {
  std::vector<std::size_t> counts(static_cast<std::size_t>(test.num_classes));
  for (const Document& doc : test.docs) {
    ++counts.at(static_cast<std::size_t>(doc.label));
  }
  const double majority =
      static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
      static_cast<double>(test.docs.size());
  if (!(test_accuracy >= majority + kTrainingMargin)) {
    problems.push_back("trained model test accuracy " +
                       std::to_string(test_accuracy) +
                       " does not clear the majority rate " +
                       std::to_string(majority) + " by " +
                       std::to_string(kTrainingMargin));
  }
  if (!std::isfinite(report.final_train_loss)) {
    problems.push_back("final training loss is not finite");
  }
}

void check_same_records(const std::vector<DocRecord>& expected,
                        const std::vector<DocRecord>& actual,
                        const std::string& what,
                        std::vector<std::string>& problems) {
  if (expected.size() != actual.size()) {
    problems.push_back(what + ": " + std::to_string(actual.size()) +
                       " records, expected " +
                       std::to_string(expected.size()));
    return;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (record_bytes(expected[i]) != record_bytes(actual[i])) {
      problems.push_back(what + ": record " + std::to_string(i) + " (" +
                         doc_tag(actual[i]) + ") differs");
      return;
    }
  }
}

void check_job(const advtext::JobComplete& complete,
               const std::vector<DocRecord>& records,
               std::size_t expected_docs, std::vector<std::string>& problems) {
  const std::string tag = "job " + std::to_string(complete.job_id);
  if (complete.termination != advtext::TerminationReason::kSucceeded) {
    problems.push_back(tag + ": ended " +
                       advtext::to_string(complete.termination));
  }
  if (records.size() != expected_docs ||
      complete.docs_evaluated != expected_docs) {
    problems.push_back(tag + ": " + std::to_string(records.size()) +
                       " records streamed, " +
                       std::to_string(complete.docs_evaluated) +
                       " evaluated, expected " +
                       std::to_string(expected_docs));
  }
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].doc_index <= records[i - 1].doc_index) {
      problems.push_back(tag + ": records out of document order");
      break;
    }
  }
}

std::size_t self_test(const SelfTestInputs& in,
                      std::vector<std::string>& problems) {
  std::size_t fed = 0;
  const auto expect_flag = [&](const char* what, bool flagged) {
    ++fed;
    if (!flagged) {
      problems.push_back(std::string("self-test: check did not flag ") +
                         what);
    }
  };

  if (in.ctx != nullptr && in.records != nullptr) {
    const RecordContext& ctx = *in.ctx;
    const DocRecord* attacked = nullptr;
    const DocRecord* substituted = nullptr;
    for (const DocRecord& r : *in.records) {
      if (r.kind != 1) continue;
      if (attacked == nullptr) attacked = &r;
      if (substituted == nullptr && r.attack.words_changed > 0) {
        substituted = &r;
      }
    }
    if (attacked == nullptr) {
      problems.push_back("self-test: no attacked record to corrupt");
    } else {
      // Marked successful, but the text is the unattacked original, which
      // the model classifies correctly (target probability < 0.5 < tau).
      DocRecord unearned = *attacked;
      unearned.attack.success = true;
      unearned.attack.adv_doc = ctx.task->test.docs[attacked->doc_index];
      unearned.attack.words_changed = 0;
      unearned.attack.sentences_changed = 0;
      unearned.flipped = 0;
      expect_flag("a success below tau", flags([&](auto& found) {
                    check_record(unearned, ctx, found);
                  }));

      DocRecord words = *attacked;
      words.attack.words_changed =
          budget(ctx.spec.lambda_w, words.attack.adv_doc.num_words()) + 1;
      expect_flag("a word budget overrun", flags([&](auto& found) {
                    check_record(words, ctx, found);
                  }));

      DocRecord sentences = *attacked;
      sentences.attack.sentences_changed =
          budget(ctx.spec.lambda_s,
                 ctx.task->test.docs[attacked->doc_index].sentences.size()) +
          1;
      expect_flag("a sentence budget overrun", flags([&](auto& found) {
                    check_record(sentences, ctx, found);
                  }));

      DocRecord accounting = *attacked;
      ++accounting.attack.cache_hits;
      expect_flag("hits + misses != queries", flags([&](auto& found) {
                    check_query_accounting(accounting, found);
                  }));

      std::vector<DocRecord> altered = *in.records;
      for (DocRecord& r : altered) {
        if (r.kind != 1) continue;
        r.attack.final_target_proba = std::nextafter(
            r.attack.final_target_proba, std::numeric_limits<double>::max());
        break;
      }
      expect_flag("a record differing in one ulp", flags([&](auto& found) {
                    check_same_records(*in.records, altered, "self-test",
                                       found);
                  }));
    }
    if (ctx.word_index != nullptr) {
      if (substituted == nullptr) {
        problems.push_back("self-test: no substitution to corrupt");
      } else {
        // Swap one substituted word for a word outside the neighbour set of
        // the original word.
        DocRecord outside = *substituted;
        const TokenSeq original =
            ctx.task->test.docs[outside.doc_index].flatten();
        std::size_t flat = 0;
        bool replaced = false;
        for (auto& sentence : outside.attack.adv_doc.sentences) {
          for (advtext::WordId& word : sentence) {
            const advtext::WordId was = original[flat++];
            if (replaced || word == was) continue;
            const auto& allowed = ctx.word_index->neighbors(was);
            for (advtext::WordId w = 2; w < ctx.task->vocab.size(); ++w) {
              if (w != was && std::find(allowed.begin(), allowed.end(), w) ==
                                  allowed.end()) {
                word = w;
                replaced = true;
                break;
              }
            }
          }
        }
        expect_flag("a substitution outside the neighbour set",
                    replaced && flags([&](auto& found) {
                      check_record(outside, ctx, found);
                    }));
      }
    }
  }

  if (in.ctx != nullptr && in.clean_accuracy > 0.0) {
    const double off_by_one =
        in.clean_accuracy +
        1.0 / static_cast<double>(in.ctx->task->test.docs.size());
    expect_flag("a clean accuracy off by one document",
                flags([&](auto& found) {
                  check_clean_accuracy(off_by_one, *in.ctx->model,
                                       in.ctx->task->test, found);
                }));
  }

  if (in.ctx != nullptr && in.train_report != nullptr) {
    advtext::TrainReport diverged = *in.train_report;
    diverged.final_train_loss = std::numeric_limits<double>::quiet_NaN();
    expect_flag("a non-finite training loss", flags([&](auto& found) {
                  check_training(diverged, in.test_accuracy,
                                 in.ctx->task->test, found);
                }));
    expect_flag("a model no better than the majority class",
                flags([&](auto& found) {
                  check_training(*in.train_report, 0.5, in.ctx->task->test,
                                 found);
                }));
  }

  if (in.job != nullptr && in.job_records != nullptr) {
    advtext::JobComplete cut = *in.job;
    cut.termination = advtext::TerminationReason::kDeadlineExceeded;
    expect_flag("a job that did not succeed", flags([&](auto& found) {
                  check_job(cut, *in.job_records, in.job_docs, found);
                }));
    std::vector<DocRecord> short_stream = *in.job_records;
    if (!short_stream.empty()) short_stream.pop_back();
    expect_flag("a job missing a record", flags([&](auto& found) {
                  check_job(*in.job, short_stream, in.job_docs, found);
                }));
    std::vector<DocRecord> reversed = *in.job_records;
    std::reverse(reversed.begin(), reversed.end());
    expect_flag("records out of document order", flags([&](auto& found) {
                  check_job(*in.job, reversed, in.job_docs, found);
                }));
  }
  return fed;
}

}  // namespace perfbench
