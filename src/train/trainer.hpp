// Training: next-token pre-training over a corpus stream and masked
// supervised fine-tuning over (prompt, target) examples, both run by the one
// optimizer-step loop, train_loop(), that core::kd_train also uses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string_view>
#include <vector>

#include "data/sft.hpp"
#include "data/vocab.hpp"
#include "nn/transformer.hpp"
#include "train/optim.hpp"
#include "util/rng.hpp"

namespace sdd::train {

struct TrainStats {
  std::vector<float> losses;       // loss at every step
  float initial_loss = 0.0F;
  float final_loss = 0.0F;         // mean over the last 10% of steps

  // Numeric-divergence guard observability (see docs/robustness.md).
  std::int64_t rollbacks = 0;        // snapshot restores after divergence
  std::int64_t skipped_batches = 0;  // updates dropped after repeated rollbacks
  std::int64_t lr_halvings = 0;      // LR-scale halvings after skips
};

// A packed fine-tuning batch: padded [prompt target] rows with next-token
// targets and weights masking everything but response-token predictions.
// Exposed so distillation-style trainers (core/kd) can reuse the packing.
struct SftBatch {
  std::vector<data::TokenId> inputs;
  std::vector<std::int32_t> targets;
  std::vector<float> weights;
  std::int64_t batch = 0;
  std::int64_t seq = 0;
};

SftBatch pack_sft_batch(const std::vector<const data::SftExample*>& examples,
                        data::TokenId pad_token, std::int64_t max_len);

// Settings every training run shares; train_loop() reads only these. The
// defaults are the fine-tuning ones (PretrainConfig overrides four).
//
// Mid-run crash safety: every `checkpoint_every` steps the trainable
// parameters, optimizer moments, RNG state, and step counter are written
// atomically to `checkpoint_path`; a restarted run resumes from the last
// checkpoint and produces bit-identical final weights. Both fields must be
// set to enable it.
//
// Numeric-divergence guard: a non-finite loss, or a pre-clip gradient norm
// that is non-finite or exceeds grad_norm_limit, restores the loop's last
// in-memory snapshot (taken on the checkpoint cadence) and replays. After
// max_rollbacks repeats at the same step the offending batch is skipped
// and the LR scale halved instead.
//
// Checkpointing and the guard are kRun: they never change what is computed
// (a transient divergence replays to bit-identical weights), only whether a
// run survives, so they stay out of result-identity hashes.
#define SDD_TRAIN_LOOP_FIELDS(X)                                              \
  X(std::int64_t, warmup_steps, 10, kKey, "linear LR warmup steps")         \
  X(float, clip_norm, 1.0F, kKey, "global gradient-norm clip")              \
  X(float, min_lr_fraction, 0.1F, kKey, "cosine floor, fraction of peak LR") \
  X(AdamWConfig, optimizer, {.lr = 1e-3F}, kKey, "optimizer settings")      \
  X(std::uint64_t, seed, 2, kKey, "batch sampling seed")                    \
  X(std::int64_t, log_every, 0, kRun, "progress log period; 0 = off")       \
  X(std::filesystem::path, checkpoint_path, {}, kRun, "checkpoint file")    \
  X(std::int64_t, checkpoint_every, 0, kRun, "checkpoint period; 0 = off")  \
  X(bool, numeric_guard, true, kRun, "roll back on divergence")             \
  X(float, grad_norm_limit, 1e8F, kRun, "divergent grad norm; <= 0 = off")  \
  X(std::int64_t, max_rollbacks, 2, kRun, "rollbacks before a batch is skipped")

struct TrainLoopConfig {
  SDD_CONFIG_FIELDS(SDD_TRAIN_LOOP_FIELDS)
};

// Draws one batch from the loop's RNG and returns its scalar loss, still on
// the autograd tape.
using BatchLoss = std::function<Tensor(Rng&)>;

// The one optimizer-step loop, behind pretrain, sft_train and core::kd_train:
// AdamW over `params` for `steps` steps on the warmup + cosine schedule, with
// checkpoint/resume, the numeric-divergence guard, the training fault hooks
// and supervisor heartbeats. `run_hash` identifies the run's data and
// settings, so a checkpoint another run left at the same path is never
// resumed. `label` prefixes log lines.
TrainStats train_loop(std::string_view label, nn::ParamList params,
                      std::int64_t steps, std::uint64_t run_hash,
                      const TrainLoopConfig& config, const BatchLoss& batch_loss);

#define SDD_PRETRAIN_FIELDS(X)                                                \
  X(std::int64_t, steps, 1200, kKey, "optimizer steps")                     \
  X(std::int64_t, batch_size, 8, kKey, "windows per step")                  \
  X(std::int64_t, seq_len, 80, kKey, "tokens per window")

struct PretrainConfig : TrainLoopConfig {
  PretrainConfig() {
    warmup_steps = 50;
    optimizer.lr = 3e-3F;
    seed = 1;
    log_every = 100;
  }

  SDD_CONFIG_FIELDS_AFTER(TrainLoopConfig, SDD_PRETRAIN_FIELDS)
};

TrainStats pretrain(nn::TransformerLM& model, std::span<const data::TokenId> stream,
                    const PretrainConfig& config);

// Actual steps = min(max_steps, epochs * examples / batch_size).
#define SDD_SFT_FIELDS(X)                                                     \
  X(std::int64_t, epochs, 3, kKey, "passes over the dataset")               \
  X(std::int64_t, max_steps, 400, kKey, "hard cap on optimizer steps")      \
  X(std::int64_t, batch_size, 8, kKey, "examples per step")

struct SftTrainConfig : TrainLoopConfig {
  SDD_CONFIG_FIELDS_AFTER(TrainLoopConfig, SDD_SFT_FIELDS)

  // Optimizer steps over a dataset of `examples` examples.
  std::int64_t steps_for(std::int64_t examples) const {
    return std::min(max_steps,
                    epochs * std::max<std::int64_t>(1, examples / batch_size));
  }

  std::uint64_t hash() const { return config::hash(*this); }
};

// `batch_size` examples drawn uniformly (with replacement) and packed.
SftBatch draw_sft_batch(const data::SftDataset& dataset, std::int64_t batch_size,
                        std::int64_t max_len, Rng& rng);

// Fine-tune on the dataset with the loss masked to target tokens only
// (negative log-likelihood of the response given the prompt, paper §2.2).
// Trains whatever `model.trainable_parameters()` returns, so it covers both
// full fine-tuning and LoRA fine-tuning transparently.
TrainStats sft_train(nn::TransformerLM& model, const data::SftDataset& dataset,
                     const SftTrainConfig& config);

// Mean masked NLL of the dataset under the model (no updates); used by tests
// and by the catastrophic-forgetting diagnostics.
float sft_loss(const nn::TransformerLM& model, const data::SftDataset& dataset,
               std::int64_t max_examples, std::int64_t batch_size = 8);

}  // namespace sdd::train
