// AdamW optimizer (decoupled weight decay), gradient clipping, and the cosine
// learning-rate schedule with linear warmup used by all fine-tuning runs.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.hpp"
#include "util/config.hpp"
#include "util/serialize.hpp"

namespace sdd::train {

#define SDD_ADAMW_FIELDS(X)                                                   \
  X(float, lr, 1e-3F, kKey, "peak learning rate")                           \
  X(float, beta1, 0.9F, kKey, "first-moment decay")                         \
  X(float, beta2, 0.95F, kKey, "second-moment decay")                       \
  X(float, eps, 1e-8F, kKey, "denominator epsilon")                         \
  X(float, weight_decay, 0.01F, kKey, "decoupled weight decay")

struct AdamWConfig {
  SDD_CONFIG_FIELDS(SDD_ADAMW_FIELDS)

  std::uint64_t hash() const { return config::hash(*this); }
};

class AdamW {
 public:
  AdamW(nn::ParamList params, AdamWConfig config);

  // One update using the supplied learning rate (callers pass the scheduled
  // value each step; config.lr is the default).
  void step(float lr);
  void step() { step(config_.lr); }

  void zero_grad();

  // Global-norm gradient clipping; returns the pre-clip norm.
  float clip_gradients(float max_norm);

  const AdamWConfig& config() const { return config_; }
  std::int64_t step_count() const { return step_count_; }

  // Checkpoint support: serialize/restore step count and both moment buffers.
  // load_state throws SerializeError if the stored shapes do not match this
  // optimizer's parameter list.
  void save_state(BinaryWriter& writer) const;
  void load_state(BinaryReader& reader);

  // In-memory equivalent of save_state/load_state, used by the trainer's
  // numeric-divergence rollback (no disk round-trip on the hot path).
  struct Snapshot {
    std::int64_t step_count = 0;
    std::vector<std::vector<float>> m, v;
  };
  Snapshot snapshot() const { return Snapshot{step_count_, m_, v_}; }
  void restore(const Snapshot& snap);

 private:
  nn::ParamList params_;
  AdamWConfig config_;
  std::vector<std::vector<float>> m_;  // first moments, parallel to params_
  std::vector<std::vector<float>> v_;  // second moments
  std::int64_t step_count_ = 0;
};

// Linear warmup to `base_lr`, then cosine decay to `min_lr` at `total_steps`.
float cosine_lr(std::int64_t step, std::int64_t total_steps, std::int64_t warmup_steps,
                float base_lr, float min_lr);

}  // namespace sdd::train
