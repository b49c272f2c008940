// Self-data distillation (paper §2.2).
//
// For each fine-tuning example (c, x, y), the *original unpruned* seed model
// generates a rewritten response ỹ ~ f_θ(y | c, x [, y]). The conditional
// selection rule keeps ỹ only when Extract(ỹ) = y (the rewrite preserves the
// reference answer) and falls back to the original y otherwise. The result
// is a distilled dataset aligned with the seed model's output distribution,
// which the pruned model is then fine-tuned on.
#pragma once

#include <cstdint>

#include "data/sft.hpp"
#include "nn/transformer.hpp"

namespace sdd::core {

// condition_on_reference: the teacher prompt also conditions on the
// reference response y (the paper's ỹ ~ f(y | c, x, y)) instead of only
// (c, x). Both satisfy the selection rule; the flag feeds the prompt-
// conditioning ablation bench.
#define SDD_DISTILL_FIELDS(X)                                                 \
  X(std::int64_t, max_new_tokens, 48, kKey, "teacher rewrite token budget") \
  X(float, temperature, 0.0F, kKey, "0 = greedy (deterministic, cacheable)") \
  X(std::uint64_t, seed, 99, kKey, "teacher sampling seed")                 \
  X(bool, condition_on_reference, false, kKey, "teacher sees the reference")

struct DistillConfig {
  SDD_CONFIG_FIELDS(SDD_DISTILL_FIELDS)

  std::uint64_t hash() const { return config::hash(*this); }
};

struct DistillStats {
  std::int64_t total = 0;
  std::int64_t accepted = 0;   // teacher rewrite kept
  std::int64_t fallback = 0;   // Extract mismatch -> original target kept
  double acceptance_rate() const {
    return total > 0 ? static_cast<double>(accepted) / static_cast<double>(total) : 0.0;
  }
};

// Build the distilled dataset. Prompts are preserved; targets are replaced by
// verified teacher generations (or kept as-is on verification failure).
data::SftDataset self_distill_dataset(const nn::TransformerLM& seed_model,
                                      const data::SftDataset& dataset,
                                      const DistillConfig& config,
                                      DistillStats* stats = nullptr);

}  // namespace sdd::core
