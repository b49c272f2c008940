#include "train/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"
#include "util/supervisor.hpp"

namespace sdd::train {
namespace {

float tail_mean(const std::vector<float>& losses) {
  if (losses.empty()) return 0.0F;
  const std::size_t tail = std::max<std::size_t>(1, losses.size() / 10);
  const auto begin = losses.end() - static_cast<std::ptrdiff_t>(tail);
  return std::accumulate(begin, losses.end(), 0.0F) / static_cast<float>(tail);
}

// ---- mid-run checkpointing ------------------------------------------------
//
// A checkpoint is a single checksummed artifact holding everything the loop
// needs to continue exactly where it stopped: trainable parameter values,
// AdamW moments + step count, the RNG stream position, and the next step
// index. A fingerprint of the run configuration guards against resuming a
// checkpoint from a different run that happens to share the path.

constexpr std::string_view kCheckpointMagic = "SDDCKPT1";
constexpr std::uint32_t kCheckpointVersion = 1;

std::uint64_t params_fingerprint(const nn::ParamList& params,
                                 std::uint64_t seed_hash) {
  std::uint64_t h = seed_hash;
  for (const nn::NamedParam& p : params) {
    h = fnv1a(p.name, h);
    h = fnv1a_value(p.tensor.numel(), h);
  }
  return h;
}

void save_checkpoint(const std::filesystem::path& path, std::uint64_t fingerprint,
                     std::int64_t next_step, const nn::ParamList& params,
                     const AdamW& optimizer, const Rng& rng) {
  try {
    BinaryWriter writer{path};
    writer.write_magic(kCheckpointMagic, kCheckpointVersion);
    writer.write_u64(fingerprint);
    writer.write_i64(next_step);
    const Rng::State rng_state = rng.state();
    for (std::uint64_t word : rng_state.words) writer.write_u64(word);
    writer.write_f64(rng_state.cached_gaussian);
    writer.write_bool(rng_state.cached_gaussian_valid);
    writer.write_u64(params.size());
    for (const nn::NamedParam& p : params) {
      writer.write_string(p.name);
      const auto data = p.tensor.data();
      writer.write_vector(std::vector<float>(data.begin(), data.end()));
    }
    optimizer.save_state(writer);
    writer.flush();
  } catch (const SerializeError& e) {
    // A failed checkpoint must never kill the run it exists to protect.
    log_warn("checkpoint: failed to save ", path.string(), ": ", e.what(),
             " (training continues)");
  }
}

// Restores state from `path` and returns the step to resume from, or nullopt
// (fresh start) when there is no checkpoint or it is stale/corrupt. All
// mutation happens only after the whole file has parsed, so a bad checkpoint
// can never leave the model half-restored.
std::optional<std::int64_t> try_resume(const std::filesystem::path& path,
                                       std::uint64_t fingerprint,
                                       nn::ParamList& params, AdamW& optimizer,
                                       Rng& rng) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  try {
    BinaryReader reader{path};
    reader.expect_magic(kCheckpointMagic, kCheckpointVersion);
    if (reader.read_u64() != fingerprint) {
      log_warn("checkpoint: ", path.string(),
               " belongs to a different run configuration; starting fresh");
      std::error_code ec;
      std::filesystem::remove(path, ec);
      return std::nullopt;
    }
    const std::int64_t next_step = reader.read_i64();
    Rng::State rng_state;
    for (std::uint64_t& word : rng_state.words) word = reader.read_u64();
    rng_state.cached_gaussian = reader.read_f64();
    rng_state.cached_gaussian_valid = reader.read_bool();
    const std::uint64_t count = reader.read_u64();
    if (count != params.size()) {
      throw SerializeError("checkpoint: parameter count mismatch");
    }
    std::vector<std::vector<float>> values;
    values.reserve(params.size());
    for (const nn::NamedParam& p : params) {
      const std::string name = reader.read_string();
      if (name != p.name) {
        throw SerializeError("checkpoint: parameter order mismatch at " + p.name);
      }
      values.push_back(reader.read_vector<float>());
      if (static_cast<std::int64_t>(values.back().size()) != p.tensor.numel()) {
        throw SerializeError("checkpoint: shape mismatch for " + name);
      }
    }
    optimizer.load_state(reader);  // throws before mutating on mismatch
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i].tensor.copy_from(values[i]);
    }
    rng.set_state(rng_state);
    return next_step;
  } catch (const SerializeError& e) {
    log_warn("checkpoint: corrupt ", path.string(), ": ", e.what(),
             " — quarantined, starting fresh");
    quarantine_artifact(path);
    return std::nullopt;
  }
}

void finish_checkpointing(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(std::filesystem::path{path.string() + ".tmp"}, ec);
}

// ---- numeric-divergence guard ---------------------------------------------
//
// Detects a poisoned step (non-finite loss, non-finite or exploding gradient
// norm) BEFORE the optimizer applies it, restores the loop to an in-memory
// snapshot of (params, optimizer moments, RNG position), and lets the loop
// replay. Replay is deterministic, so a transient divergence (one bad batch,
// an injected NaN) converges to weights bit-identical to a run where it
// never happened. A divergence that reproduces at the same step after
// max_rollbacks replays is treated as persistent: the offending update is
// skipped and the LR scale halved for the remainder of the run.

// Snapshot cadence when disk checkpointing is off; the cadence never affects
// final weights (replay is exact), only how much work a rollback repeats.
constexpr std::int64_t kGuardSnapshotEvery = 16;

class NumericGuard {
 public:
  NumericGuard(std::string_view loop, bool enabled, float grad_norm_limit,
               std::int64_t max_rollbacks, std::int64_t snapshot_every)
      : loop_{loop},
        enabled_{enabled},
        grad_norm_limit_{grad_norm_limit},
        max_rollbacks_{max_rollbacks},
        snapshot_every_{snapshot_every > 0 ? snapshot_every : kGuardSnapshotEvery} {}

  bool enabled() const { return enabled_; }
  float lr_scale() const { return lr_scale_; }
  std::int64_t snapshot_step() const { return snap_step_; }

  bool bad_loss(float loss) const { return enabled_ && !std::isfinite(loss); }

  bool bad_grad_norm(float norm) const {
    return enabled_ && (!std::isfinite(norm) ||
                        (grad_norm_limit_ > 0.0F && norm > grad_norm_limit_));
  }

  void capture(std::int64_t step, const nn::ParamList& params,
               const AdamW& optimizer, const Rng& rng) {
    if (!enabled_) return;
    snap_step_ = step;
    snap_params_.clear();
    snap_params_.reserve(params.size());
    for (const nn::NamedParam& p : params) {
      const auto data = p.tensor.data();
      snap_params_.emplace_back(data.begin(), data.end());
    }
    snap_opt_ = optimizer.snapshot();
    snap_rng_ = rng.state();
  }

  // Refresh the rolling snapshot on the cadence (called after step `step`
  // completed, i.e. with `next` = step + 1, mirroring checkpoint saves).
  void maybe_capture(std::int64_t next, const nn::ParamList& params,
                     const AdamW& optimizer, const Rng& rng) {
    if (enabled_ && next % snapshot_every_ == 0) {
      capture(next, params, optimizer, rng);
    }
  }

  // Handles a detected divergence at `step`. Returns true when the loop was
  // rolled back (resume from snapshot_step()), false when the offending
  // batch should be skipped instead.
  bool handle_divergence(std::int64_t step, float loss, float grad_norm,
                         nn::ParamList& params, AdamW& optimizer, Rng& rng,
                         TrainStats& stats) {
    if (step == last_diverged_step_) {
      ++repeats_;
    } else {
      last_diverged_step_ = step;
      repeats_ = 1;
    }
    if (repeats_ > max_rollbacks_) {
      lr_scale_ *= 0.5F;
      ++stats.skipped_batches;
      ++stats.lr_halvings;
      log_warn(loop_, ": persistent numeric divergence at step ", step,
               " (loss=", loss, ", grad_norm=", grad_norm, ") after ",
               repeats_ - 1, " rollback(s) — skipping batch, halving LR scale to ",
               lr_scale_);
      return false;
    }
    log_warn(loop_, ": numeric divergence at step ", step, " (loss=", loss,
             ", grad_norm=", grad_norm, ") — rolling back to step ", snap_step_);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i].tensor.copy_from(snap_params_[i]);
    }
    optimizer.restore(snap_opt_);
    rng.set_state(snap_rng_);
    ++stats.rollbacks;
    return true;
  }

 private:
  std::string_view loop_;
  bool enabled_;
  float grad_norm_limit_;
  std::int64_t max_rollbacks_;
  std::int64_t snapshot_every_;

  std::int64_t snap_step_ = 0;
  std::vector<std::vector<float>> snap_params_;
  AdamW::Snapshot snap_opt_;
  Rng::State snap_rng_;

  std::int64_t last_diverged_step_ = -1;
  std::int64_t repeats_ = 0;
  float lr_scale_ = 1.0F;
};

}  // namespace

SftBatch pack_sft_batch(const std::vector<const data::SftExample*>& examples,
                        data::TokenId pad_token, std::int64_t max_len) {
  SftBatch batch;
  batch.batch = static_cast<std::int64_t>(examples.size());
  std::int64_t longest = 0;
  for (const data::SftExample* example : examples) {
    longest = std::max(longest, static_cast<std::int64_t>(example->prompt.size() +
                                                          example->target.size()));
  }
  batch.seq = std::min(longest, max_len);
  const auto total = static_cast<std::size_t>(batch.batch * batch.seq);
  batch.inputs.assign(total, pad_token);
  batch.targets.assign(total, 0);
  batch.weights.assign(total, 0.0F);

  for (std::int64_t b = 0; b < batch.batch; ++b) {
    const data::SftExample& example = *examples[static_cast<std::size_t>(b)];
    std::vector<data::TokenId> row{example.prompt};
    row.insert(row.end(), example.target.begin(), example.target.end());
    const auto row_len = std::min<std::int64_t>(
        static_cast<std::int64_t>(row.size()), batch.seq);
    const auto prompt_len = static_cast<std::int64_t>(example.prompt.size());
    for (std::int64_t t = 0; t < row_len; ++t) {
      batch.inputs[static_cast<std::size_t>(b * batch.seq + t)] =
          row[static_cast<std::size_t>(t)];
    }
    // Position t predicts row[t+1]; only response-token predictions count.
    for (std::int64_t t = 0; t + 1 < row_len; ++t) {
      const std::size_t flat = static_cast<std::size_t>(b * batch.seq + t);
      batch.targets[flat] = row[static_cast<std::size_t>(t + 1)];
      if (t + 1 >= prompt_len) batch.weights[flat] = 1.0F;
    }
  }
  return batch;
}

SftBatch draw_sft_batch(const data::SftDataset& dataset, std::int64_t batch_size,
                        std::int64_t max_len, Rng& rng) {
  std::vector<const data::SftExample*> picked;
  picked.reserve(static_cast<std::size_t>(batch_size));
  for (std::int64_t b = 0; b < batch_size; ++b) {
    picked.push_back(&dataset.examples[rng.index(dataset.examples.size())]);
  }
  return pack_sft_batch(picked, data::Vocab::instance().pad(), max_len);
}

namespace {

Tensor sft_batch_loss(const nn::TransformerLM& model, const SftBatch& batch) {
  const Tensor logits = model.forward(batch.inputs, batch.batch, batch.seq);
  return ops::cross_entropy(logits, batch.targets, batch.weights);
}

}  // namespace

TrainStats train_loop(std::string_view label, nn::ParamList params,
                      std::int64_t steps, std::uint64_t run_hash,
                      const TrainLoopConfig& config, const BatchLoss& batch_loss) {
  AdamW optimizer{params, config.optimizer};
  Rng rng{config.seed};
  TrainStats stats;
  stats.losses.reserve(static_cast<std::size_t>(std::max<std::int64_t>(0, steps)));

  const bool checkpointing =
      !config.checkpoint_path.empty() && config.checkpoint_every > 0;
  const std::uint64_t fingerprint = params_fingerprint(params, run_hash);
  std::int64_t start_step = 0;
  if (checkpointing) {
    if (const auto resumed = try_resume(config.checkpoint_path, fingerprint,
                                        params, optimizer, rng)) {
      start_step = *resumed;
      log_info(label, ": resumed from checkpoint at step ", start_step, "/", steps);
    }
  }

  NumericGuard guard{label, config.numeric_guard, config.grad_norm_limit,
                     config.max_rollbacks, config.checkpoint_every};
  guard.capture(start_step, params, optimizer, rng);

  std::int64_t step = start_step;
  while (step < steps) {
    Tensor loss = batch_loss(rng);
    const float loss_value = fault::poison_loss(loss.item());
    float grad_norm = 0.0F;
    bool diverged = guard.bad_loss(loss_value);
    if (!diverged) {
      optimizer.zero_grad();
      loss.backward();
      grad_norm = optimizer.clip_gradients(config.clip_norm);
      diverged = guard.bad_grad_norm(grad_norm);
    }
    if (diverged) {
      if (guard.handle_divergence(step, loss_value, grad_norm, params,
                                  optimizer, rng, stats)) {
        stats.losses.resize(
            static_cast<std::size_t>(guard.snapshot_step() - start_step));
        step = guard.snapshot_step();
      } else {
        ++step;  // batch skipped, no update recorded
      }
      supervisor::heartbeat();
      continue;
    }
    const float lr = cosine_lr(step, steps, config.warmup_steps, config.optimizer.lr,
                               config.optimizer.lr * config.min_lr_fraction) *
                     guard.lr_scale();
    optimizer.step(lr);

    stats.losses.push_back(loss_value);
    if (step == start_step) stats.initial_loss = loss_value;
    if (config.log_every > 0 && (step % config.log_every == 0)) {
      log_info(label, " step ", step, "/", steps, " loss=", loss_value);
    }
    if (checkpointing && (step + 1) % config.checkpoint_every == 0 &&
        step + 1 < steps) {
      save_checkpoint(config.checkpoint_path, fingerprint, step + 1, params,
                      optimizer, rng);
    }
    guard.maybe_capture(step + 1, params, optimizer, rng);
    fault::on_train_step();
    supervisor::heartbeat();
    ++step;
  }
  if (checkpointing) finish_checkpointing(config.checkpoint_path);
  stats.final_loss = tail_mean(stats.losses);
  return stats;
}

TrainStats pretrain(nn::TransformerLM& model, std::span<const data::TokenId> stream,
                    const PretrainConfig& config) {
  if (static_cast<std::int64_t>(stream.size()) < config.seq_len + 2) {
    throw std::invalid_argument("pretrain: stream shorter than one window");
  }
  std::uint64_t h = fnv1a("pretrain");
  h = fnv1a_bytes(std::as_bytes(stream), h);
  h = hash_combine(h, config::hash(config));

  const std::int64_t max_start =
      static_cast<std::int64_t>(stream.size()) - config.seq_len - 1;
  std::vector<data::TokenId> inputs(
      static_cast<std::size_t>(config.batch_size * config.seq_len));
  std::vector<std::int32_t> targets(inputs.size());
  const std::vector<float> weights(inputs.size(), 1.0F);
  return train_loop(
      "pretrain", model.trainable_parameters(), config.steps, h, config,
      [&](Rng& rng) {
        for (std::int64_t b = 0; b < config.batch_size; ++b) {
          const std::int64_t start = rng.uniform_int(0, max_start);
          for (std::int64_t t = 0; t < config.seq_len; ++t) {
            const auto flat = static_cast<std::size_t>(b * config.seq_len + t);
            inputs[flat] = stream[static_cast<std::size_t>(start + t)];
            targets[flat] = stream[static_cast<std::size_t>(start + t + 1)];
          }
        }
        const Tensor logits = model.forward(inputs, config.batch_size, config.seq_len);
        return ops::cross_entropy(logits, targets, weights);
      });
}

TrainStats sft_train(nn::TransformerLM& model, const data::SftDataset& dataset,
                     const SftTrainConfig& config) {
  if (dataset.examples.empty()) {
    throw std::invalid_argument("sft_train: empty dataset");
  }
  const std::int64_t max_len = model.config().max_seq_len;
  std::uint64_t h = fnv1a("sft");
  h = hash_combine(h, dataset.hash());
  h = hash_combine(h, config.hash());
  h = fnv1a_value(max_len, h);
  const auto steps =
      config.steps_for(static_cast<std::int64_t>(dataset.examples.size()));
  return train_loop(
      "sft[" + dataset.name + "]", model.trainable_parameters(), steps, h, config,
      [&](Rng& rng) {
        return sft_batch_loss(model,
                              draw_sft_batch(dataset, config.batch_size, max_len, rng));
      });
}

float sft_loss(const nn::TransformerLM& model, const data::SftDataset& dataset,
               std::int64_t max_examples, std::int64_t batch_size) {
  NoGradGuard no_grad;
  const auto n = std::min<std::int64_t>(
      max_examples, static_cast<std::int64_t>(dataset.examples.size()));
  if (n == 0) throw std::invalid_argument("sft_loss: empty dataset");
  double total = 0.0;
  std::int64_t batches = 0;
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min(n, begin + batch_size);
    std::vector<const data::SftExample*> picked;
    for (std::int64_t i = begin; i < end; ++i) {
      picked.push_back(&dataset.examples[static_cast<std::size_t>(i)]);
    }
    const SftBatch batch = pack_sft_batch(picked, data::Vocab::instance().pad(),
                                          model.config().max_seq_len);
    total += sft_batch_loss(model, batch).item();
    ++batches;
  }
  return static_cast<float>(total / static_cast<double>(batches));
}

}  // namespace sdd::train
