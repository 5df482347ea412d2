// Per-search accounting pins: every search (objective greedy, lazy greedy,
// gradient-guided greedy, greedy sentence, gradient baseline, and the joint
// attack with each word method) runs on one fixed small task over WCNN,
// LSTM, GRU and BoW victims under three control regimes, and every counter
// it reports must equal the recorded value: queries, cache hits and misses,
// budget charges, gradient calls, iterations, the termination reason, the
// words/sentences changed, the adversarial tokens (hashed) and the bits of
// the final target probability.
//
// The regimes cover each way a search meets its limits:
//   * "cached"  — an unlimited but bound QueryBudget plus a QueryCache;
//   * "tight"   — a 90-query budget and no cache, so a 64-row scoring
//                 chunk truncates part-way through;
//   * "expired" — a deadline already in the past, nothing else bound.
//
// The pins are a refactoring guard: restructuring a search must not move
// a single query, charge or bit. A mismatch prints the observed row in
// table syntax.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/gradient_attack.h"
#include "src/core/gradient_guided_greedy.h"
#include "src/core/joint_attack.h"
#include "src/core/lazy_greedy_attack.h"
#include "src/core/objective_greedy.h"
#include "src/core/sentence_attack.h"
#include "src/data/synthetic.h"
#include "src/eval/pipeline.h"
#include "src/nn/bow_classifier.h"
#include "src/nn/gru.h"
#include "src/nn/lstm.h"
#include "src/nn/trainer.h"
#include "src/nn/wcnn.h"
#include "src/util/query_cache.h"
#include "src/util/robust.h"

namespace advtext {
namespace {

struct Pin {
  const char* name;
  std::size_t queries;
  std::size_t cache_hits;
  std::size_t cache_misses;
  std::size_t budget_charged;
  std::size_t gradient_calls;
  std::size_t iterations;
  int termination;
  std::size_t words_changed;
  std::size_t sentences_changed;
  std::uint64_t tokens_hash;
  std::uint64_t proba_bits;
};

// Recorded from the searches as they stood before the search shell.
constexpr Pin kPinned[] = {
    {"wcnn/doc0/cached/objective_greedy", 892, 9, 883, 885, 0, 9, 1, 9, 0, 0x1653dc95bbc55b8full, 0x3fe18f06e0000000ull},
    {"wcnn/doc0/cached/lazy_greedy", 145, 10, 135, 137, 0, 9, 1, 9, 0, 0x857a5327c036d1daull, 0x3fe18ef5a0000000ull},
    {"wcnn/doc0/cached/gradient_guided_greedy", 211, 0, 211, 213, 1, 1, 1, 4, 0, 0xb17a1c0bfda78404ull, 0x3fe0fff5c0000000ull},
    {"wcnn/doc0/cached/sentence", 47, 1, 46, 46, 0, 0, 1, 0, 1, 0xc3f96cd56ae5e1a7ull, 0x3fe09482a0000000ull},
    {"wcnn/doc0/cached/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0xa959253d9925fc37ull, 0x3fe0e4f720000000ull},
    {"wcnn/doc0/cached/joint0", 358, 1, 357, 359, 0, 0, 1, 4, 1, 0xdc6105f0e9c7ef84ull, 0x3fe18a5080000000ull},
    {"wcnn/doc0/cached/joint1", 496, 5, 491, 493, 0, 0, 1, 4, 1, 0xdc6105f0e9c7ef84ull, 0x3fe18a5080000000ull},
    {"wcnn/doc0/cached/joint2", 48, 1, 47, 48, 0, 0, 1, 4, 1, 0x5ab9481d0de021e5ull, 0x3fe166d6c0000000ull},
    {"wcnn/doc0/cached/joint_low_tau", 358, 1, 357, 359, 0, 0, 0, 4, 1, 0xdc6105f0e9c7ef84ull, 0x3fe18a5080000000ull},
    {"wcnn/doc0/tight/objective_greedy", 89, 0, 89, 91, 0, 1, 2, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/tight/lazy_greedy", 89, 0, 89, 91, 0, 0, 2, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/tight/gradient_guided_greedy", 89, 0, 89, 91, 1, 1, 2, 3, 0, 0x7d9005a69effcfe5ull, 0x3fe0c40ca0000000ull},
    {"wcnn/doc0/tight/sentence", 47, 0, 47, 47, 0, 0, 1, 0, 1, 0xc3f96cd56ae5e1a7ull, 0x3fe09482a0000000ull},
    {"wcnn/doc0/tight/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0xa959253d9925fc37ull, 0x3fe0e4f720000000ull},
    {"wcnn/doc0/tight/joint0", 89, 0, 89, 91, 0, 0, 2, 3, 1, 0x03870af531ea7d37ull, 0x3fe13df120000000ull},
    {"wcnn/doc0/tight/joint1", 89, 0, 89, 91, 0, 0, 2, 0, 1, 0xc3f96cd56ae5e1a7ull, 0x3fe09482a0000000ull},
    {"wcnn/doc0/tight/joint2", 48, 0, 48, 49, 0, 0, 1, 4, 1, 0x5ab9481d0de021e5ull, 0x3fe166d6c0000000ull},
    {"wcnn/doc0/tight/joint_low_tau", 89, 0, 89, 91, 0, 0, 0, 3, 1, 0x03870af531ea7d37ull, 0x3fe13df120000000ull},
    {"wcnn/doc0/expired/objective_greedy", 0, 0, 0, 0, 0, 1, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/expired/lazy_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/expired/gradient_guided_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/expired/sentence", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/expired/gradient", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/expired/joint0", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/expired/joint1", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/expired/joint2", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc0/expired/joint_low_tau", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe00c02c0000000ull},
    {"wcnn/doc1/cached/objective_greedy", 1083, 10, 1073, 1075, 0, 10, 1, 10, 0, 0x258089b9ef066b4cull, 0x3fe2b6bd40000000ull},
    {"wcnn/doc1/cached/lazy_greedy", 171, 11, 160, 162, 0, 10, 1, 10, 0, 0xd76c46bdd28630b7ull, 0x3fe2aea7a0000000ull},
    {"wcnn/doc1/cached/gradient_guided_greedy", 303, 0, 303, 305, 1, 1, 1, 4, 0, 0xb8159a1eebf50174ull, 0x3fe1fe1100000000ull},
    {"wcnn/doc1/cached/sentence", 47, 1, 46, 46, 0, 0, 1, 0, 1, 0x0d562668a7c1497cull, 0x3fe1641ce0000000ull},
    {"wcnn/doc1/cached/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0x3f6e697356a529f5ull, 0x3fe1a4ad40000000ull},
    {"wcnn/doc1/cached/joint0", 312, 1, 311, 313, 0, 0, 1, 4, 1, 0x8109f3ab52c59dd8ull, 0x3fe1f1c900000000ull},
    {"wcnn/doc1/cached/joint1", 608, 5, 603, 605, 0, 0, 1, 4, 1, 0x5e907ffcdc629d99ull, 0x3fe25c2060000000ull},
    {"wcnn/doc1/cached/joint2", 48, 1, 47, 48, 0, 0, 1, 4, 1, 0xaef0b89dd4e1f2a8ull, 0x3fe1e09840000000ull},
    {"wcnn/doc1/cached/joint_low_tau", 1, 0, 1, 1, 0, 0, 0, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/tight/objective_greedy", 89, 0, 89, 91, 0, 1, 2, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/tight/lazy_greedy", 89, 0, 89, 91, 0, 0, 2, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/tight/gradient_guided_greedy", 89, 0, 89, 91, 1, 1, 2, 3, 0, 0x9a3cbca4ddd1d69eull, 0x3fe1c950c0000000ull},
    {"wcnn/doc1/tight/sentence", 47, 0, 47, 47, 0, 0, 1, 0, 1, 0x0d562668a7c1497cull, 0x3fe1641ce0000000ull},
    {"wcnn/doc1/tight/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0x3f6e697356a529f5ull, 0x3fe1a4ad40000000ull},
    {"wcnn/doc1/tight/joint0", 89, 0, 89, 91, 0, 0, 2, 1, 1, 0x32c0c525f8a6928aull, 0x3fe1a93680000000ull},
    {"wcnn/doc1/tight/joint1", 89, 0, 89, 91, 0, 0, 2, 0, 1, 0x0d562668a7c1497cull, 0x3fe1641ce0000000ull},
    {"wcnn/doc1/tight/joint2", 48, 0, 48, 49, 0, 0, 1, 4, 1, 0xaef0b89dd4e1f2a8ull, 0x3fe1e09840000000ull},
    {"wcnn/doc1/tight/joint_low_tau", 1, 0, 1, 1, 0, 0, 0, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/objective_greedy", 0, 0, 0, 0, 0, 1, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/lazy_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/gradient_guided_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/sentence", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/gradient", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/joint0", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/joint1", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/joint2", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"wcnn/doc1/expired/joint_low_tau", 1, 0, 1, 1, 0, 0, 0, 0, 0, 0x6279572e8946ef97ull, 0x3fe0e51be0000000ull},
    {"lstm/doc0/cached/objective_greedy", 794, 9, 785, 787, 0, 9, 1, 9, 0, 0xfd0d80ea63cd84c7ull, 0x3fd9ee11c0000000ull},
    {"lstm/doc0/cached/lazy_greedy", 140, 10, 130, 132, 0, 9, 1, 9, 0, 0xfd0d80ea63cd84c7ull, 0x3fd9ee11c0000000ull},
    {"lstm/doc0/cached/gradient_guided_greedy", 371, 0, 371, 373, 1, 1, 1, 4, 0, 0xae7c252c3b0ca27full, 0x3fd79fd8c0000000ull},
    {"lstm/doc0/cached/sentence", 47, 1, 46, 46, 0, 0, 1, 0, 1, 0xa937ac7716aaa3a4ull, 0x3fd8da0fe0000000ull},
    {"lstm/doc0/cached/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0xb8c48ce2d418fbb6ull, 0x3fd6f43d60000000ull},
    {"lstm/doc0/cached/joint0", 434, 1, 433, 435, 0, 0, 1, 4, 1, 0xf789ddb71655ce20ull, 0x3fdd04dec0000000ull},
    {"lstm/doc0/cached/joint1", 473, 5, 468, 470, 0, 0, 1, 4, 1, 0x75ce4f6d7af4aabaull, 0x3fdd0de7c0000000ull},
    {"lstm/doc0/cached/joint2", 48, 1, 47, 48, 0, 0, 1, 4, 1, 0x69ec2a20ff3fdec2ull, 0x3fdbd11000000000ull},
    {"lstm/doc0/cached/joint_low_tau", 434, 1, 433, 435, 0, 0, 1, 4, 1, 0xf789ddb71655ce20ull, 0x3fdd04dec0000000ull},
    {"lstm/doc0/tight/objective_greedy", 89, 0, 89, 91, 0, 1, 2, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/tight/lazy_greedy", 89, 0, 89, 91, 0, 0, 2, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/tight/gradient_guided_greedy", 89, 0, 89, 91, 1, 1, 2, 2, 0, 0xc339e572a55c88e3ull, 0x3fd5e04700000000ull},
    {"lstm/doc0/tight/sentence", 47, 0, 47, 47, 0, 0, 1, 0, 1, 0xa937ac7716aaa3a4ull, 0x3fd8da0fe0000000ull},
    {"lstm/doc0/tight/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0xb8c48ce2d418fbb6ull, 0x3fd6f43d60000000ull},
    {"lstm/doc0/tight/joint0", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0xef201b6e5d163c8bull, 0x3fdaa591a0000000ull},
    {"lstm/doc0/tight/joint1", 89, 0, 89, 91, 0, 0, 2, 0, 1, 0xa937ac7716aaa3a4ull, 0x3fd8da0fe0000000ull},
    {"lstm/doc0/tight/joint2", 48, 0, 48, 49, 0, 0, 1, 4, 1, 0x69ec2a20ff3fdec2ull, 0x3fdbd11000000000ull},
    {"lstm/doc0/tight/joint_low_tau", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0xef201b6e5d163c8bull, 0x3fdaa591a0000000ull},
    {"lstm/doc0/expired/objective_greedy", 0, 0, 0, 0, 0, 1, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/expired/lazy_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/expired/gradient_guided_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/expired/sentence", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/expired/gradient", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/expired/joint0", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/expired/joint1", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/expired/joint2", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc0/expired/joint_low_tau", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fd3631340000000ull},
    {"lstm/doc1/cached/objective_greedy", 1093, 10, 1083, 1085, 0, 10, 1, 10, 0, 0xb8bbbd537bbe104cull, 0x3fd8a6aee0000000ull},
    {"lstm/doc1/cached/lazy_greedy", 159, 11, 148, 150, 0, 10, 1, 10, 0, 0xe2300b34cc420ac0ull, 0x3fd7085a60000000ull},
    {"lstm/doc1/cached/gradient_guided_greedy", 275, 0, 275, 277, 1, 1, 1, 4, 0, 0x5469cdf7d02d73f7ull, 0x3fc2f6d0a0000000ull},
    {"lstm/doc1/cached/sentence", 47, 1, 46, 46, 0, 0, 1, 0, 1, 0x0d562668a7c1497cull, 0x3fb7132880000000ull},
    {"lstm/doc1/cached/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0x75f09404f02989b4ull, 0x3fc16ed7e0000000ull},
    {"lstm/doc1/cached/joint0", 408, 1, 407, 409, 0, 0, 1, 4, 1, 0x3981a1c6cb24804dull, 0x3fcad37160000000ull},
    {"lstm/doc1/cached/joint1", 591, 5, 586, 588, 0, 0, 1, 4, 1, 0x3981a1c6cb24804dull, 0x3fcad37160000000ull},
    {"lstm/doc1/cached/joint2", 48, 1, 47, 48, 0, 0, 1, 4, 1, 0x6a63a33b9fde0695ull, 0x3fc1b9c020000000ull},
    {"lstm/doc1/cached/joint_low_tau", 408, 1, 407, 409, 0, 0, 1, 4, 1, 0x3981a1c6cb24804dull, 0x3fcad37160000000ull},
    {"lstm/doc1/tight/objective_greedy", 89, 0, 89, 91, 0, 1, 2, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/tight/lazy_greedy", 89, 0, 89, 91, 0, 0, 2, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/tight/gradient_guided_greedy", 89, 0, 89, 91, 1, 1, 2, 3, 0, 0x4d331552c88c085full, 0x3fbefab3c0000000ull},
    {"lstm/doc1/tight/sentence", 47, 0, 47, 47, 0, 0, 1, 0, 1, 0x0d562668a7c1497cull, 0x3fb7132880000000ull},
    {"lstm/doc1/tight/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0x75f09404f02989b4ull, 0x3fc16ed7e0000000ull},
    {"lstm/doc1/tight/joint0", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0x8129d7e1aeae33b9ull, 0x3fbd175760000000ull},
    {"lstm/doc1/tight/joint1", 89, 0, 89, 91, 0, 0, 2, 0, 1, 0x0d562668a7c1497cull, 0x3fb7132880000000ull},
    {"lstm/doc1/tight/joint2", 48, 0, 48, 49, 0, 0, 1, 4, 1, 0x6a63a33b9fde0695ull, 0x3fc1b9c020000000ull},
    {"lstm/doc1/tight/joint_low_tau", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0x8129d7e1aeae33b9ull, 0x3fbd175760000000ull},
    {"lstm/doc1/expired/objective_greedy", 0, 0, 0, 0, 0, 1, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/expired/lazy_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/expired/gradient_guided_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/expired/sentence", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/expired/gradient", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/expired/joint0", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/expired/joint1", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/expired/joint2", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"lstm/doc1/expired/joint_low_tau", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fb33f0440000000ull},
    {"gru/doc0/cached/objective_greedy", 823, 9, 814, 816, 0, 9, 1, 9, 0, 0xabca5c7bbdc6bef5ull, 0x3fe58c00c0000000ull},
    {"gru/doc0/cached/lazy_greedy", 141, 10, 131, 133, 0, 9, 1, 9, 0, 0xabca5c7bbdc6bef5ull, 0x3fe58c00c0000000ull},
    {"gru/doc0/cached/gradient_guided_greedy", 377, 0, 377, 379, 1, 1, 1, 4, 0, 0x0e817923e4d6e5eeull, 0x3fe4a2e620000000ull},
    {"gru/doc0/cached/sentence", 47, 1, 46, 46, 0, 0, 1, 0, 1, 0x0a3d767c21688f89ull, 0x3fe3827b40000000ull},
    {"gru/doc0/cached/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0x07dd7da8a83c1b7dull, 0x3fe3a2f940000000ull},
    {"gru/doc0/cached/joint0", 358, 1, 357, 359, 0, 0, 1, 4, 1, 0x755af8ff6ed986d2ull, 0x3fe5286840000000ull},
    {"gru/doc0/cached/joint1", 484, 5, 479, 481, 0, 0, 1, 4, 1, 0x755af8ff6ed986d2ull, 0x3fe5286840000000ull},
    {"gru/doc0/cached/joint2", 48, 1, 47, 48, 0, 0, 1, 4, 1, 0x755af8ff6ed986d2ull, 0x3fe5286840000000ull},
    {"gru/doc0/cached/joint_low_tau", 1, 0, 1, 1, 0, 0, 0, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/tight/objective_greedy", 89, 0, 89, 91, 0, 1, 2, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/tight/lazy_greedy", 89, 0, 89, 91, 0, 0, 2, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/tight/gradient_guided_greedy", 89, 0, 89, 91, 1, 1, 2, 2, 0, 0xc2ae456edcf6027dull, 0x3fe3d28e80000000ull},
    {"gru/doc0/tight/sentence", 47, 0, 47, 47, 0, 0, 1, 0, 1, 0x0a3d767c21688f89ull, 0x3fe3827b40000000ull},
    {"gru/doc0/tight/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0x07dd7da8a83c1b7dull, 0x3fe3a2f940000000ull},
    {"gru/doc0/tight/joint0", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0x6685ba65f49fd221ull, 0x3fe43f7d80000000ull},
    {"gru/doc0/tight/joint1", 89, 0, 89, 91, 0, 0, 2, 0, 1, 0x0a3d767c21688f89ull, 0x3fe3827b40000000ull},
    {"gru/doc0/tight/joint2", 48, 0, 48, 49, 0, 0, 1, 4, 1, 0x755af8ff6ed986d2ull, 0x3fe5286840000000ull},
    {"gru/doc0/tight/joint_low_tau", 1, 0, 1, 1, 0, 0, 0, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/objective_greedy", 0, 0, 0, 0, 0, 1, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/lazy_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/gradient_guided_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/sentence", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/gradient", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/joint0", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/joint1", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/joint2", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc0/expired/joint_low_tau", 1, 0, 1, 1, 0, 0, 0, 0, 0, 0xa064472fcdced9e7ull, 0x3fe263a960000000ull},
    {"gru/doc1/cached/objective_greedy", 1046, 10, 1036, 1038, 0, 10, 1, 10, 0, 0xc5028efb431ca61cull, 0x3fd99a9b80000000ull},
    {"gru/doc1/cached/lazy_greedy", 159, 11, 148, 150, 0, 10, 1, 10, 0, 0x10479d6f1eb17014ull, 0x3fd9969320000000ull},
    {"gru/doc1/cached/gradient_guided_greedy", 371, 0, 371, 373, 1, 1, 1, 4, 0, 0x3900620b9682576bull, 0x3fd65ff700000000ull},
    {"gru/doc1/cached/sentence", 47, 1, 46, 46, 0, 0, 1, 0, 1, 0x860a9563d62cee59ull, 0x3fd39f3820000000ull},
    {"gru/doc1/cached/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0x1d8e4db49d0d0e40ull, 0x3fd5c48ac0000000ull},
    {"gru/doc1/cached/joint0", 306, 1, 305, 307, 0, 0, 1, 4, 1, 0x830640609e5762bfull, 0x3fd6f8c2a0000000ull},
    {"gru/doc1/cached/joint1", 537, 5, 532, 534, 0, 0, 1, 4, 1, 0x830640609e5762bfull, 0x3fd6f8c2a0000000ull},
    {"gru/doc1/cached/joint2", 48, 1, 47, 48, 0, 0, 1, 4, 1, 0x6fac082fed466005ull, 0x3fd6d4f2e0000000ull},
    {"gru/doc1/cached/joint_low_tau", 306, 1, 305, 307, 0, 0, 1, 4, 1, 0x830640609e5762bfull, 0x3fd6f8c2a0000000ull},
    {"gru/doc1/tight/objective_greedy", 89, 0, 89, 91, 0, 1, 2, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/tight/lazy_greedy", 89, 0, 89, 91, 0, 0, 2, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/tight/gradient_guided_greedy", 89, 0, 89, 91, 1, 1, 2, 2, 0, 0xbd68068df8f555c6ull, 0x3fd4998c80000000ull},
    {"gru/doc1/tight/sentence", 47, 0, 47, 47, 0, 0, 1, 0, 1, 0x860a9563d62cee59ull, 0x3fd39f3820000000ull},
    {"gru/doc1/tight/gradient", 1, 0, 1, 2, 1, 1, 1, 4, 0, 0x1d8e4db49d0d0e40ull, 0x3fd5c48ac0000000ull},
    {"gru/doc1/tight/joint0", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0x7f3d11f24bae0464ull, 0x3fd5debf20000000ull},
    {"gru/doc1/tight/joint1", 89, 0, 89, 91, 0, 0, 2, 0, 1, 0x860a9563d62cee59ull, 0x3fd39f3820000000ull},
    {"gru/doc1/tight/joint2", 48, 0, 48, 49, 0, 0, 1, 4, 1, 0x6fac082fed466005ull, 0x3fd6d4f2e0000000ull},
    {"gru/doc1/tight/joint_low_tau", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0x7f3d11f24bae0464ull, 0x3fd5debf20000000ull},
    {"gru/doc1/expired/objective_greedy", 0, 0, 0, 0, 0, 1, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/expired/lazy_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/expired/gradient_guided_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/expired/sentence", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/expired/gradient", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/expired/joint0", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/expired/joint1", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/expired/joint2", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"gru/doc1/expired/joint_low_tau", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3fd277f940000000ull},
    {"bow/doc0/cached/objective_greedy", 442, 4, 438, 440, 0, 4, 0, 4, 0, 0xb71aed1bb882a25aull, 0x3fe7c821a0000000ull},
    {"bow/doc0/cached/lazy_greedy", 130, 5, 125, 127, 0, 4, 0, 4, 0, 0xb71aed1bb882a25aull, 0x3fe7c821a0000000ull},
    {"bow/doc0/cached/gradient_guided_greedy", 313, 0, 313, 315, 1, 1, 0, 4, 0, 0xb71aed1bb882a25aull, 0x3fe7c821a0000000ull},
    {"bow/doc0/cached/sentence", 47, 1, 46, 46, 0, 0, 1, 0, 1, 0xeabfbecd2fa4e6d3ull, 0x3fd81e5340000000ull},
    {"bow/doc0/cached/gradient", 1, 0, 1, 2, 1, 1, 1, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/cached/joint0", 360, 1, 359, 361, 0, 0, 0, 4, 1, 0x080887f3a9aa7fa4ull, 0x3feb759780000000ull},
    {"bow/doc0/cached/joint1", 370, 4, 366, 368, 0, 0, 0, 3, 1, 0xd56e6d21513b4d47ull, 0x3fe97ddea0000000ull},
    {"bow/doc0/cached/joint2", 48, 1, 47, 48, 0, 0, 1, 0, 1, 0xeabfbecd2fa4e6d3ull, 0x3fd81e5340000000ull},
    {"bow/doc0/cached/joint_low_tau", 360, 1, 359, 361, 0, 0, 0, 4, 1, 0x080887f3a9aa7fa4ull, 0x3feb759780000000ull},
    {"bow/doc0/tight/objective_greedy", 89, 0, 89, 91, 0, 1, 2, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/tight/lazy_greedy", 89, 0, 89, 91, 0, 0, 2, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/tight/gradient_guided_greedy", 89, 0, 89, 91, 1, 1, 2, 2, 0, 0x542b4a57d0bbda96ull, 0x3fdacbd300000000ull},
    {"bow/doc0/tight/sentence", 47, 0, 47, 47, 0, 0, 1, 0, 1, 0xeabfbecd2fa4e6d3ull, 0x3fd81e5340000000ull},
    {"bow/doc0/tight/gradient", 1, 0, 1, 2, 1, 1, 1, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/tight/joint0", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0x50ce3cb4fa5e343aull, 0x3fe6185fe0000000ull},
    {"bow/doc0/tight/joint1", 89, 0, 89, 91, 0, 0, 2, 0, 1, 0xeabfbecd2fa4e6d3ull, 0x3fd81e5340000000ull},
    {"bow/doc0/tight/joint2", 48, 0, 48, 49, 0, 0, 1, 0, 1, 0xeabfbecd2fa4e6d3ull, 0x3fd81e5340000000ull},
    {"bow/doc0/tight/joint_low_tau", 89, 0, 89, 91, 0, 0, 0, 2, 1, 0x50ce3cb4fa5e343aull, 0x3fe6185fe0000000ull},
    {"bow/doc0/expired/objective_greedy", 0, 0, 0, 0, 0, 1, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/expired/lazy_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/expired/gradient_guided_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/expired/sentence", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/expired/gradient", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/expired/joint0", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/expired/joint1", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/expired/joint2", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc0/expired/joint_low_tau", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0xa064472fcdced9e7ull, 0x3fc1f46bc0000000ull},
    {"bow/doc1/cached/objective_greedy", 907, 8, 899, 901, 0, 8, 0, 8, 0, 0x5c30c1e5669263bfull, 0x3fe9d2e780000000ull},
    {"bow/doc1/cached/lazy_greedy", 155, 9, 146, 148, 0, 8, 0, 8, 0, 0x5c30c1e5669263bfull, 0x3fe9d2e780000000ull},
    {"bow/doc1/cached/gradient_guided_greedy", 323, 0, 323, 325, 1, 1, 1, 4, 0, 0x2718708ea39258efull, 0x3fc8634d20000000ull},
    {"bow/doc1/cached/sentence", 47, 1, 46, 46, 0, 0, 1, 0, 1, 0x5de9aa6d4b4325f3ull, 0x3fc37c9da0000000ull},
    {"bow/doc1/cached/gradient", 1, 0, 1, 2, 1, 1, 1, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/cached/joint0", 322, 1, 321, 323, 0, 0, 0, 4, 1, 0x8301682931a9916eull, 0x3fe95ee840000000ull},
    {"bow/doc1/cached/joint1", 561, 5, 556, 558, 0, 0, 0, 4, 1, 0x8301682931a9916eull, 0x3fe95ee840000000ull},
    {"bow/doc1/cached/joint2", 48, 1, 47, 48, 0, 0, 1, 0, 1, 0x5de9aa6d4b4325f3ull, 0x3fc37c9da0000000ull},
    {"bow/doc1/cached/joint_low_tau", 322, 1, 321, 323, 0, 0, 0, 4, 1, 0x8301682931a9916eull, 0x3fe95ee840000000ull},
    {"bow/doc1/tight/objective_greedy", 89, 0, 89, 91, 0, 1, 2, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/tight/lazy_greedy", 89, 0, 89, 91, 0, 0, 2, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/tight/gradient_guided_greedy", 89, 0, 89, 91, 1, 1, 2, 2, 0, 0x60506dc6d6cec237ull, 0x3fa96750c0000000ull},
    {"bow/doc1/tight/sentence", 47, 0, 47, 47, 0, 0, 1, 0, 1, 0x5de9aa6d4b4325f3ull, 0x3fc37c9da0000000ull},
    {"bow/doc1/tight/gradient", 1, 0, 1, 2, 1, 1, 1, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/tight/joint0", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0xa2907199a9389cd3ull, 0x3fdd728b80000000ull},
    {"bow/doc1/tight/joint1", 89, 0, 89, 91, 0, 0, 2, 0, 1, 0x5de9aa6d4b4325f3ull, 0x3fc37c9da0000000ull},
    {"bow/doc1/tight/joint2", 48, 0, 48, 49, 0, 0, 1, 0, 1, 0x5de9aa6d4b4325f3ull, 0x3fc37c9da0000000ull},
    {"bow/doc1/tight/joint_low_tau", 89, 0, 89, 91, 0, 0, 2, 2, 1, 0xa2907199a9389cd3ull, 0x3fdd728b80000000ull},
    {"bow/doc1/expired/objective_greedy", 0, 0, 0, 0, 0, 1, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/expired/lazy_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/expired/gradient_guided_greedy", 0, 0, 0, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/expired/sentence", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/expired/gradient", 1, 0, 1, 0, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/expired/joint0", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/expired/joint1", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/expired/joint2", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
    {"bow/doc1/expired/joint_low_tau", 1, 0, 1, 1, 0, 0, 3, 0, 0, 0x6279572e8946ef97ull, 0x3f8648b9e0000000ull},
};

std::string format(const Pin& p) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", %zu, %zu, %zu, %zu, %zu, %zu, %d, %zu, %zu, "
                "0x%016llxull, 0x%016llxull},",
                p.name, p.queries, p.cache_hits, p.cache_misses,
                p.budget_charged, p.gradient_calls, p.iterations,
                p.termination, p.words_changed, p.sentences_changed,
                static_cast<unsigned long long>(p.tokens_hash),
                static_cast<unsigned long long>(p.proba_bits));
  return buf;
}

std::uint64_t hash_tokens(const TokenSeq& tokens) {
  return fnv1a64(tokens.data(), tokens.size() * sizeof(WordId));
}

Pin observe(const std::string& name, const WordAttackResult& r) {
  return {name.c_str(),
          r.queries,
          r.cache_hits,
          r.cache_misses,
          r.budget_charged,
          r.gradient_calls,
          r.iterations,
          static_cast<int>(r.termination),
          r.words_changed,
          0,
          hash_tokens(r.adv_tokens),
          std::bit_cast<std::uint64_t>(r.final_target_proba)};
}

Pin observe(const std::string& name, const SentenceAttackResult& r) {
  return {name.c_str(),
          r.queries,
          r.cache_hits,
          r.cache_misses,
          r.budget_charged,
          0,
          0,
          static_cast<int>(r.termination),
          0,
          r.sentences_changed,
          hash_tokens(r.adv_doc.flatten()),
          std::bit_cast<std::uint64_t>(r.final_target_proba)};
}

Pin observe(const std::string& name, const JointAttackResult& r) {
  return {name.c_str(),
          r.queries,
          r.cache_hits,
          r.cache_misses,
          r.budget_charged,
          0,
          0,
          static_cast<int>(r.termination),
          r.words_changed,
          r.sentences_changed,
          hash_tokens(r.adv_doc.flatten()),
          std::bit_cast<std::uint64_t>(r.final_target_proba)};
}

bool same(const Pin& a, const Pin& b) {
  return a.queries == b.queries && a.cache_hits == b.cache_hits &&
         a.cache_misses == b.cache_misses &&
         a.budget_charged == b.budget_charged &&
         a.gradient_calls == b.gradient_calls &&
         a.iterations == b.iterations && a.termination == b.termination &&
         a.words_changed == b.words_changed &&
         a.sentences_changed == b.sentences_changed &&
         a.tokens_hash == b.tokens_hash && a.proba_bits == b.proba_bits;
}

enum class Regime { kCached, kTight, kExpired };

constexpr std::size_t kTightBudget = 90;
constexpr double kLowThreshold = 0.52;

const char* regime_name(Regime regime) {
  switch (regime) {
    case Regime::kCached:
      return "cached";
    case Regime::kTight:
      return "tight";
    case Regime::kExpired:
      return "expired";
  }
  return "?";
}

class SearchAccountingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config = make_yelp(67).config;
    config.seed = 67;
    config.num_train = 160;
    config.num_test = 12;
    config.min_sentences = 3;
    config.max_sentences = 4;
    config.min_words_per_sentence = 5;
    config.max_words_per_sentence = 8;
    task_ = new SynthTask(make_task(config));
    context_ = new TaskAttackContext(*task_);

    const std::size_t dim = task_->config.embedding_dim;
    TrainConfig train;
    train.epochs = 6;
    WCnnConfig wcnn;
    wcnn.embed_dim = dim;
    wcnn.num_filters = 16;
    auto wcnn_model = std::make_unique<WCnn>(wcnn, Matrix(task_->paragram));
    train_classifier(*wcnn_model, task_->train, train);
    LstmConfig lstm;
    lstm.embed_dim = dim;
    lstm.hidden = 12;
    auto lstm_model =
        std::make_unique<LstmClassifier>(lstm, Matrix(task_->paragram));
    train_classifier(*lstm_model, task_->train, train);
    GruConfig gru;
    gru.embed_dim = dim;
    gru.hidden = 12;
    auto gru_model =
        std::make_unique<GruClassifier>(gru, Matrix(task_->paragram));
    train_classifier(*gru_model, task_->train, train);
    BowClassifierConfig bow;
    bow.vocab_size = static_cast<std::size_t>(task_->vocab.size());
    auto bow_model = std::make_unique<BowClassifier>(bow);
    train_classifier(*bow_model, task_->train, train);

    models_ = new std::vector<std::unique_ptr<TextClassifier>>();
    models_->push_back(std::move(wcnn_model));
    models_->push_back(std::move(lstm_model));
    models_->push_back(std::move(gru_model));
    models_->push_back(std::move(bow_model));
  }
  static void TearDownTestSuite() {
    delete models_;
    delete context_;
    delete task_;
    models_ = nullptr;
    context_ = nullptr;
    task_ = nullptr;
  }

  static const char* family(std::size_t index) {
    static const char* const kNames[] = {"wcnn", "lstm", "gru", "bow"};
    return kNames[index];
  }

  // The two attacked documents: the first two test documents.
  static const Document& doc(std::size_t d) { return task_->test.docs[d]; }
  static std::size_t target(std::size_t d) {
    return 1 - static_cast<std::size_t>(doc(d).label);
  }

  // Runs `attack` under `regime`, with the controls it names freshly built.
  template <typename Attack>
  static auto under(Regime regime, Attack&& attack) {
    QueryBudget budget(regime == Regime::kTight ? kTightBudget : 0);
    QueryCache cache(regime == Regime::kCached ? std::size_t{8} << 20 : 0);
    AttackControl control;
    if (regime == Regime::kExpired) control.deadline = Deadline::after_ms(0);
    if (regime != Regime::kExpired) control.budget = &budget;
    if (regime == Regime::kCached) control.cache = &cache;
    return attack(control);
  }

  // `names` owns the case names the rows point into.
  static std::vector<Pin> observe_all(std::deque<std::string>& names) {
    std::vector<Pin> rows;
    const auto record = [&](const std::string& name, const auto& result) {
      names.push_back(name);
      rows.push_back(observe(names.back(), result));
    };
    for (std::size_t m = 0; m < models_->size(); ++m) {
      const TextClassifier& model = *(*models_)[m];
      for (std::size_t d = 0; d < 2; ++d) {
        const TokenSeq tokens = doc(d).flatten();
        WordCandidates candidates;
        candidates.per_position =
            context_->word_index().candidates_for(tokens, &context_->lm());
        const auto neighbor_sets =
            context_->paraphraser().neighbor_sets(doc(d), context_->wmd());
        const std::size_t y = target(d);
        for (const Regime regime :
             {Regime::kCached, Regime::kTight, Regime::kExpired}) {
          const std::string prefix = std::string(family(m)) + "/doc" +
                                     std::to_string(d) + "/" +
                                     regime_name(regime) + "/";
          record(prefix + "objective_greedy",
                 under(regime, [&](const AttackControl& control) {
                   return objective_greedy_attack(model, tokens, candidates,
                                                  y, {}, control);
                 }));
          record(prefix + "lazy_greedy",
                 under(regime, [&](const AttackControl& control) {
                   return lazy_greedy_attack(model, tokens, candidates, y, {},
                                             control);
                 }));
          record(prefix + "gradient_guided_greedy",
                 under(regime, [&](const AttackControl& control) {
                   return gradient_guided_greedy_attack(
                       model, tokens, candidates, y, {}, control);
                 }));
          record(prefix + "sentence",
                 under(regime, [&](const AttackControl& control) {
                   return greedy_sentence_attack(model, doc(d), neighbor_sets,
                                                 y, {}, control);
                 }));
          record(prefix + "gradient",
                 under(regime, [&](const AttackControl& control) {
                   return gradient_attack(model, tokens, candidates, y, {},
                                          control);
                 }));
          for (const WordAttackMethod method :
               {WordAttackMethod::kGradientGuidedGreedy,
                WordAttackMethod::kObjectiveGreedy,
                WordAttackMethod::kGradient}) {
            QueryCache cache(regime == Regime::kCached ? std::size_t{8} << 20
                                                       : 0);
            AttackResources resources = context_->resources();
            resources.query_cache = &cache;
            JointAttackConfig config;
            config.word_method = method;
            if (regime == Regime::kTight) config.max_queries = kTightBudget;
            // Positive, yet shorter than the clock's resolution: already
            // expired when the first poll reads the clock.
            if (regime == Regime::kExpired) config.deadline_ms = 1e-9;
            record(prefix + "joint" +
                       std::to_string(static_cast<int>(method)),
                   joint_attack(model, doc(d), y, resources, config));
          }
          // A low τ lets the sentence phase finish the joint attack alone.
          QueryCache cache(regime == Regime::kCached ? std::size_t{8} << 20
                                                     : 0);
          AttackResources resources = context_->resources();
          resources.query_cache = &cache;
          JointAttackConfig config;
          config.success_threshold = kLowThreshold;
          if (regime == Regime::kTight) config.max_queries = kTightBudget;
          if (regime == Regime::kExpired) config.deadline_ms = 1e-9;
          record(prefix + "joint_low_tau",
                 joint_attack(model, doc(d), y, resources, config));
        }
      }
    }
    return rows;
  }

  static SynthTask* task_;
  static TaskAttackContext* context_;
  static std::vector<std::unique_ptr<TextClassifier>>* models_;
};

SynthTask* SearchAccountingFixture::task_ = nullptr;
TaskAttackContext* SearchAccountingFixture::context_ = nullptr;
std::vector<std::unique_ptr<TextClassifier>>*
    SearchAccountingFixture::models_ = nullptr;

TEST_F(SearchAccountingFixture, EverySearchMatchesItsPinnedAccounting) {
  std::deque<std::string> names;
  const std::vector<Pin> rows = observe_all(names);
  EXPECT_EQ(rows.size(), std::size(kPinned))
      << "the case list changed; pins are per case";
  std::string mismatches;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Pin& got = rows[i];
    if (i < std::size(kPinned) && got.name == std::string(kPinned[i].name) &&
        same(got, kPinned[i])) {
      continue;
    }
    mismatches += format(got) + "\n";
  }
  EXPECT_TRUE(mismatches.empty()) << "observed rows that differ:\n"
                                  << mismatches;
}

// Each regime bites where it should: the tight budget stops some search,
// and the expired deadline stops some search and never reads as a budget
// stop.
TEST_F(SearchAccountingFixture, RegimesReachTheirLimits) {
  std::size_t budget_stops = 0;
  std::size_t deadline_stops = 0;
  for (const Pin& pin : kPinned) {
    const std::string name = pin.name;
    const auto reason = static_cast<TerminationReason>(pin.termination);
    if (name.find("/tight/") != std::string::npos &&
        reason == TerminationReason::kBudgetExhausted) {
      ++budget_stops;
    }
    if (name.find("/expired/") != std::string::npos) {
      EXPECT_NE(reason, TerminationReason::kBudgetExhausted) << name;
      if (reason == TerminationReason::kDeadlineExceeded) ++deadline_stops;
    }
  }
  EXPECT_GT(budget_stops, 0u);
  EXPECT_GT(deadline_stops, 0u);
}

}  // namespace
}  // namespace advtext
