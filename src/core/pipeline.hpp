// End-to-end experiment pipeline: pretrain (once, cached) -> prune ->
// {No FT | SFT | Self-Data Distillation [+ model merging]} -> hand the model
// to the evaluation harness.
//
// This is the orchestration layer behind every table and figure bench. All
// heavyweight stages are cached on disk through ExperimentCache; in-process
// memoization covers the cheap ones (calibration set, prune curves).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/cache.hpp"
#include "core/distill.hpp"
#include "core/kd.hpp"
#include "core/merge.hpp"
#include "core/prune.hpp"
#include "data/corpus.hpp"
#include "data/world.hpp"
#include "train/trainer.hpp"
#include "util/supervisor.hpp"

namespace sdd::core {

// Recovery strategies for a pruned model:
//   kNone              - one-shot pruning, no fine-tuning
//   kSft               - LoRA SFT on the raw (human-style) dataset
//   kSelfDataDistill   - LoRA SFT on the self-distilled dataset (the paper)
//   kSftReplay         - SFT on raw data mixed with replayed pre-training-
//                        style examples (the classic forgetting baseline the
//                        paper's related work discusses)
//   kKd                - teacher-logit distillation on the raw dataset
//   kSelfDataDistillKd - SDD data + teacher-logit distillation (the paper's
//                        "combine with KD" future-work recipe)
enum class FtMethod {
  kNone,
  kSft,
  kSelfDataDistill,
  kSftReplay,
  kKd,
  kSelfDataDistillKd,
};
std::string method_name(FtMethod method);

// Every cache key folds the key fields that feed its artifact:
//   base       model, corpus, pretrain, world_seed, base_seed, version
//   distilled  base + dataset_seed, distill
//   recovered  base + metric, calib_*, and for a fine-tuned method
//              dataset_seed, sft, lora, plus distill (SDD), kd (KD) or
//              replay_ratio (replay)
// cache_dir and supervise are kRun: supervision cannot change what a stage
// computes, only whether it survives faults.
#define SDD_PIPELINE_FIELDS(X)                                                \
  X(nn::ModelConfig, model, {}, kKey, "vocab_size is filled from the Vocab") \
  X(data::CorpusConfig, corpus, {}, kKey, "pre-training corpus")            \
  X(train::PretrainConfig, pretrain, {}, kKey, "base model training")       \
  X(nn::LoraConfig, lora, {}, kKey, "recovery adapters")                    \
  X(train::SftTrainConfig, sft, {}, kKey, "recovery training (SFT and KD)") \
  X(DistillConfig, distill, {}, kKey, "self-data distillation")             \
  X(KdConfig, kd, {}, kKey, "teacher-logit distillation")                   \
  X(double, replay_ratio, 0.5, kKey, "replayed per raw example (replay)")   \
  X(ImportanceMetric, metric, ImportanceMetric::kAngularCosine, kKey,       \
    "block importance metric")                                              \
  X(std::uint64_t, world_seed, 42, kKey, "synthetic world seed")            \
  X(std::uint64_t, dataset_seed, 1001, kKey, "fine-tuning dataset seed")    \
  X(std::int64_t, calib_samples, 8, kKey, "calibration sequences")          \
  X(std::int64_t, calib_seq, 64, kKey, "calibration sequence length")       \
  X(std::uint64_t, calib_seed, 4242, kKey, "calibration set seed")          \
  X(std::uint64_t, base_seed, 7, kKey, "base model init seed")              \
  X(std::filesystem::path, cache_dir, "sdd_cache", kRun, "artifact cache")  \
  X(std::uint64_t, version, 1, kKey, "bump to invalidate every artifact")   \
  X(supervisor::SupervisorConfig, supervise, {}, kRun, "stage retry/watchdog")

struct PipelineConfig {
  SDD_CONFIG_FIELDS(SDD_PIPELINE_FIELDS)

  // Default scaled configuration used by all benches (see DESIGN.md §5),
  // with kPipelineEnv applied, so the suite can be scaled up or down without
  // recompiling.
  static PipelineConfig standard();

  std::uint64_t base_key() const;  // identifies the pre-trained base model
};

// The guard trio binds both training loops: SFT and KD recovery read sft.
inline constexpr config::EnvBinding kPipelineEnv[] = {
    {"SDD_DMODEL", "model.d_model"},
    {"SDD_HEADS", "model.n_heads"},
    {"SDD_LAYERS", "model.n_layers"},
    {"SDD_DFF", "model.d_ff"},
    {"SDD_MAX_SEQ", "model.max_seq_len"},
    {"SDD_CORPUS_DOCS", "corpus.n_documents"},
    {"SDD_PRETRAIN_STEPS", "pretrain.steps"},
    {"SDD_PRETRAIN_BATCH", "pretrain.batch_size"},
    {"SDD_PRETRAIN_SEQ", "pretrain.seq_len"},
    {"SDD_PRETRAIN_LR", "pretrain.optimizer.lr"},
    {"SDD_SFT_EPOCHS", "sft.epochs"},
    {"SDD_SFT_MAX_STEPS", "sft.max_steps"},
    {"SDD_SFT_BATCH", "sft.batch_size"},
    {"SDD_SFT_LR", "sft.optimizer.lr"},
    {"SDD_LORA_RANK", "lora.rank"},
    {"SDD_LORA_ALPHA", "lora.alpha"},
    {"SDD_DISTILL_MAX_TOKENS", "distill.max_new_tokens"},
    {"SDD_CKPT_EVERY", "pretrain.checkpoint_every"},
    {"SDD_SFT_CKPT_EVERY", "sft.checkpoint_every"},
    {"SDD_NUMERIC_GUARD", "pretrain.numeric_guard"},
    {"SDD_NUMERIC_GUARD", "sft.numeric_guard"},
    {"SDD_GRAD_NORM_LIMIT", "pretrain.grad_norm_limit"},
    {"SDD_GRAD_NORM_LIMIT", "sft.grad_norm_limit"},
    {"SDD_MAX_ROLLBACKS", "pretrain.max_rollbacks"},
    {"SDD_MAX_ROLLBACKS", "sft.max_rollbacks"},
    {"SDD_CACHE_DIR", "cache_dir"},
    {"SDD_RETRY_MAX", "supervise.retry_max"},
    {"SDD_BACKOFF_MS", "supervise.backoff_ms"},
    {"SDD_STAGE_DEADLINE_SEC", "supervise.deadline_ms", 1000},
    {"SDD_STAGE_HANG_SEC", "supervise.hang_ms", 1000},
};

// The LoRA init seed of a recovered model: recovered_key() as it was before
// that key covered the calibration set and the whole pretrain config.
// Frozen, so recovered weights do not move when a key gains a field; it
// reads only the fields it always read. Defined for the fine-tuned methods
// (kNone attaches no adapters).
std::uint64_t lora_seed(const PipelineConfig& config, std::int64_t block_size,
                        FtMethod method, const std::string& dataset_name,
                        std::int64_t size);

class Pipeline {
 public:
  explicit Pipeline(PipelineConfig config);

  const PipelineConfig& config() const { return config_; }
  const data::World& world() const { return world_; }
  ExperimentCache& cache() { return cache_; }

  // The pre-trained (unpruned) base model; trains on first use, then loads
  // from the cache.
  const nn::TransformerLM& base_model();

  // Calibration set (the RedPajama stand-in) for the pruning metrics.
  const std::vector<std::vector<data::TokenId>>& calibration();

  // Algorithm 1 for the configured metric; memoized per block size.
  const PruneResult& prune(std::int64_t block_size);

  // Raw fine-tuning dataset by name ("gsm8k", "openmathinstruct", "dolly",
  // "alpaca") at a given sample count.
  data::SftDataset raw_dataset(const std::string& name, std::int64_t size);

  // Self-distilled version of the raw dataset (teacher = unpruned base
  // model); disk cached.
  data::SftDataset distilled_dataset(const std::string& name, std::int64_t size,
                                     DistillStats* stats = nullptr);

  // Cache key of a distilled dataset. The fleet layer uses it to validate
  // that a worker actually published the artifact (a cache load through the
  // checksum) without recomputing anything in the orchestrator.
  std::uint64_t distilled_key(const std::string& name, std::int64_t size) const;

  // Raw dataset mixed with `replay_ratio * size` house-style pre-training
  // examples (data-replay forgetting baseline).
  data::SftDataset replay_dataset(const std::string& name, std::int64_t size);

  // Pruned model recovered with the given method; disk cached. For kNone the
  // pruned model is returned as-is.
  nn::TransformerLM recovered(std::int64_t block_size, FtMethod method,
                              const std::string& dataset_name, std::int64_t size);

  // Self-data distillation + model merging: SLERP(t) of two SDD-recovered
  // models fine-tuned on different datasets (paper merges OpenMathInstruct
  // and Alpaca at block level).
  nn::TransformerLM merged(std::int64_t block_size, const std::string& dataset_a,
                           std::int64_t size_a, const std::string& dataset_b,
                           std::int64_t size_b, float t = 0.5F);

  // Cache key for a recovered model (used by benches to key eval results).
  std::uint64_t recovered_key(std::int64_t block_size, FtMethod method,
                              const std::string& dataset_name,
                              std::int64_t size) const;

 private:
  // Caching an artifact is an optimization, never a correctness requirement:
  // a failed store (full disk, injected fault) is logged and the in-memory
  // result is used as-is.
  void store_model_best_effort(std::uint64_t key, const nn::TransformerLM& model,
                               const char* what);

  PipelineConfig config_;
  data::World world_;
  ExperimentCache cache_;
  std::unique_ptr<nn::TransformerLM> base_;
  std::vector<std::vector<data::TokenId>> calibration_;
  std::map<std::int64_t, PruneResult> prune_results_;
};

}  // namespace sdd::core
