// Pre-training corpus: a mixture of synthetic document families rendered in
// the model's house style (the stand-in for the paper's pre-training
// distribution), plus the held-out calibration slice that plays the role of
// RedPajama for the pruning metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "data/vocab.hpp"
#include "data/world.hpp"
#include "util/config.hpp"

namespace sdd::data {

// Mixture weights are normalized internally.
#define SDD_CORPUS_FIELDS(X)                                                  \
  X(std::int64_t, n_documents, 20000, kKey, "documents in the stream")      \
  X(std::uint64_t, seed, 7, kKey, "document sampling seed")                 \
  X(double, w_math_qa, 0.34, kKey, "solved word problems (house style)")    \
  X(double, w_equation_drill, 0.16, kKey, "bare arithmetic tables")         \
  X(double, w_kb_facts, 0.20, kKey, "declarative world facts")              \
  X(double, w_kb_qa, 0.14, kKey, "KB question/answer pairs")                \
  X(double, w_routines, 0.06, kKey, "routine stories")                      \
  X(double, w_colors, 0.05, kKey, "color facts and popular misconceptions") \
  X(double, w_instructions, 0.05, kKey, "dolly/alpaca-style instructions")  \
  X(double, myth_rate, 0.3, kKey, "share of color docs stating the myth")

struct CorpusConfig {
  SDD_CONFIG_FIELDS(SDD_CORPUS_FIELDS)

  std::uint64_t hash() const { return config::hash(*this); }
};

// A flat token stream of <bos> doc <eos> documents.
std::vector<TokenId> build_pretraining_stream(const World& world,
                                              const CorpusConfig& config);

// Deterministic held-out slice (different seed) used as the representative
// dataset D for the pruning metrics (Eq. 1). Returns `n_samples` sequences of
// exactly `seq_len` tokens.
std::vector<std::vector<TokenId>> build_calibration_set(const World& world,
                                                        std::int64_t n_samples,
                                                        std::int64_t seq_len,
                                                        std::uint64_t seed);

}  // namespace sdd::data
