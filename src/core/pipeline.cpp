#include "core/pipeline.hpp"

#include <stdexcept>

#include "data/kb_gen.hpp"

#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace sdd::core {

std::string method_name(FtMethod method) {
  switch (method) {
    case FtMethod::kNone:
      return "no_ft";
    case FtMethod::kSft:
      return "sft";
    case FtMethod::kSelfDataDistill:
      return "self_data_distill";
    case FtMethod::kSftReplay:
      return "sft_replay";
    case FtMethod::kKd:
      return "kd";
    case FtMethod::kSelfDataDistillKd:
      return "self_data_distill_kd";
  }
  return "unknown";
}

PipelineConfig PipelineConfig::standard() {
  PipelineConfig config;
  config.model.vocab_size = data::Vocab::instance().size();
  // The standard scale, where it differs from the struct defaults.
  config.model.max_seq_len = 160;
  config.corpus.n_documents = 24000;
  config.pretrain.steps = 4000;
  config.pretrain.seq_len = 96;
  config.pretrain.checkpoint_every = 500;
  config.sft.epochs = 1;
  config.sft.max_steps = 120;
  config.sft.checkpoint_every = 25;
  return config::from_env(kPipelineEnv, config);
}

std::uint64_t PipelineConfig::base_key() const {
  std::uint64_t h = model.hash();
  h = hash_combine(h, corpus.hash());
  h = hash_combine(h, config::hash(pretrain));
  h = hash_combine(h, fnv1a_value(world_seed));
  h = hash_combine(h, fnv1a_value(base_seed));
  h = hash_combine(h, fnv1a_value(version));
  return h;
}

std::uint64_t lora_seed(const PipelineConfig& config, std::int64_t block_size,
                        FtMethod method, const std::string& dataset_name,
                        std::int64_t size) {
  const train::PretrainConfig& pre = config.pretrain;
  const train::SftTrainConfig& sft = config.sft;
  const auto fold = [](std::uint64_t h, const auto&... fields) {
    ((h = fnv1a_value(fields, h)), ...);
    return h;
  };
  std::uint64_t key = config.model.hash();
  for (const std::uint64_t field :
       {config.corpus.hash(), fnv1a_value(pre.steps), fnv1a_value(pre.batch_size),
        fnv1a_value(pre.seq_len), fnv1a_value(pre.optimizer.lr), fnv1a_value(pre.seed),
        fnv1a_value(config.world_seed), fnv1a_value(config.base_seed),
        fnv1a_value(config.version), fnv1a_value(block_size),
        fnv1a_value(static_cast<int>(config.metric)), fnv1a(method_name(method)),
        fnv1a(dataset_name), fnv1a_value(size), fnv1a_value(config.dataset_seed),
        fold(sft.optimizer.hash(), sft.epochs, sft.max_steps, sft.batch_size,
             sft.warmup_steps, sft.clip_norm, sft.min_lr_fraction, sft.seed),
        config.lora.hash()}) {
    key = hash_combine(key, field);
  }
  if (method == FtMethod::kSelfDataDistill || method == FtMethod::kSelfDataDistillKd) {
    key = hash_combine(key, config.distill.hash());
  }
  if (method == FtMethod::kKd || method == FtMethod::kSelfDataDistillKd) {
    key = hash_combine(key, config.kd.hash());
  }
  if (method == FtMethod::kSftReplay) {
    key = hash_combine(key, fnv1a_value(config.replay_ratio));
  }
  return key;
}

Pipeline::Pipeline(PipelineConfig config)
    : config_{std::move(config)},
      world_{config_.world_seed},
      cache_{config_.cache_dir} {
  if (config_.model.vocab_size == 0) {
    config_.model.vocab_size = data::Vocab::instance().size();
  }
  // Forces SDD_FAULT parsing now: a malformed spec must abort before any
  // stage runs, not minutes in at the first fault hook.
  fault::enabled();
}

const nn::TransformerLM& Pipeline::base_model() {
  if (base_ != nullptr) return *base_;
  const std::uint64_t key = config_.base_key();
  // The cache probe lives inside the supervised body so a retried attempt
  // picks up whatever an interrupted predecessor managed to persist (e.g.
  // a mid-run checkpoint after a watchdog abort).
  base_ = supervisor::supervised(
      "pretrain", config_.supervise,
      [&]() -> std::unique_ptr<nn::TransformerLM> {
        if (auto cached = cache_.load_model(key)) {
          log_info("pipeline: loaded cached base model (key=", hash_hex(key), ")");
          return std::make_unique<nn::TransformerLM>(std::move(*cached));
        }
        log_info("pipeline: pre-training base model ", config_.model.to_string());
        const std::vector<data::TokenId> stream =
            data::build_pretraining_stream(world_, config_.corpus);
        auto model =
            std::make_unique<nn::TransformerLM>(config_.model, config_.base_seed);
        train::PretrainConfig pretrain_config = config_.pretrain;
        pretrain_config.checkpoint_path = cache_.checkpoint_path(key);
        const train::TrainStats stats =
            train::pretrain(*model, stream, pretrain_config);
        log_info("pipeline: pre-training done, loss ", stats.initial_loss, " -> ",
                 stats.final_loss);
        store_model_best_effort(key, *model, "base model");
        return model;
      });
  return *base_;
}

void Pipeline::store_model_best_effort(std::uint64_t key,
                                       const nn::TransformerLM& model,
                                       const char* what) {
  try {
    cache_.store_model(key, model);
  } catch (const SerializeError& e) {
    log_warn("pipeline: failed to cache ", what, " (key=", hash_hex(key),
             "): ", e.what(), " — continuing uncached");
  }
}

const std::vector<std::vector<data::TokenId>>& Pipeline::calibration() {
  if (calibration_.empty()) {
    calibration_ = data::build_calibration_set(world_, config_.calib_samples,
                                               config_.calib_seq, config_.calib_seed);
  }
  return calibration_;
}

const PruneResult& Pipeline::prune(std::int64_t block_size) {
  const auto it = prune_results_.find(block_size);
  if (it != prune_results_.end()) return it->second;
  PruneResult result = supervisor::supervised(
      "prune", config_.supervise, [&]() -> PruneResult {
        return prune_model(base_model(), calibration(), block_size, config_.metric);
      });
  log_info("pipeline: prune n=", block_size, " -> layers [", result.start, ", ",
           result.start + block_size, "), distance=", result.distance);
  return prune_results_.emplace(block_size, std::move(result)).first->second;
}

data::SftDataset Pipeline::raw_dataset(const std::string& name, std::int64_t size) {
  return data::make_dataset_by_name(world_, name, size,
                                    config_.dataset_seed + fnv1a(name));
}

std::uint64_t Pipeline::distilled_key(const std::string& name,
                                      std::int64_t size) const {
  std::uint64_t key = config_.base_key();
  key = hash_combine(key, fnv1a(name));
  key = hash_combine(key, fnv1a_value(size));
  key = hash_combine(key, fnv1a_value(config_.dataset_seed));
  key = hash_combine(key, config_.distill.hash());
  key = hash_combine(key, fnv1a("distilled-dataset"));
  return key;
}

data::SftDataset Pipeline::distilled_dataset(const std::string& name,
                                             std::int64_t size, DistillStats* stats) {
  const std::uint64_t key = distilled_key(name, size);
  return supervisor::supervised(
      "distill", config_.supervise, [&]() -> data::SftDataset {
        if (auto cached = cache_.load_dataset(key)) {
          if (stats != nullptr) *stats = DistillStats{};  // stats only on fresh runs
          return std::move(*cached);
        }
        const data::SftDataset raw = raw_dataset(name, size);
        const data::SftDataset distilled =
            self_distill_dataset(base_model(), raw, config_.distill, stats);
        try {
          cache_.store_dataset(key, distilled);
        } catch (const SerializeError& e) {
          log_warn("pipeline: failed to cache distilled dataset ", distilled.name,
                   ": ", e.what(), " — continuing uncached");
        }
        return distilled;
      });
}

data::SftDataset Pipeline::replay_dataset(const std::string& name,
                                          std::int64_t size) {
  data::SftDataset mixture = raw_dataset(name, size);
  mixture.name = name + "+replay";
  const auto n_replay = static_cast<std::int64_t>(
      config_.replay_ratio * static_cast<double>(size));
  Rng rng{config_.dataset_seed ^ 0x5EB1A7ULL};
  const data::Vocab& vocab = data::Vocab::instance();
  for (std::int64_t i = 0; i < n_replay; ++i) {
    const data::QaPair qa = data::render_kb_qa(world_, rng);
    data::SftExample example;
    example.prompt = vocab.encode(qa.question);
    example.prompt.insert(example.prompt.begin(), vocab.bos());
    example.prompt.push_back(vocab.sep());
    example.target = vocab.encode(qa.answer);
    example.target.push_back(vocab.eos());
    example.extract = data::ExtractKind::kOpenEnded;
    mixture.examples.push_back(std::move(example));
  }
  return mixture;
}

std::uint64_t Pipeline::recovered_key(std::int64_t block_size, FtMethod method,
                                      const std::string& dataset_name,
                                      std::int64_t size) const {
  std::uint64_t key = config_.base_key();
  for (const std::uint64_t field :
       {fnv1a_value(block_size), fnv1a_value(config_.metric),
        fnv1a_value(config_.calib_samples), fnv1a_value(config_.calib_seq),
        fnv1a_value(config_.calib_seed), fnv1a(method_name(method))}) {
    key = hash_combine(key, field);
  }
  if (method != FtMethod::kNone) {
    key = hash_combine(key, fnv1a(dataset_name));
    key = hash_combine(key, fnv1a_value(size));
    key = hash_combine(key, fnv1a_value(config_.dataset_seed));
    key = hash_combine(key, config_.sft.hash());
    key = hash_combine(key, config_.lora.hash());
    if (method == FtMethod::kSelfDataDistill ||
        method == FtMethod::kSelfDataDistillKd) {
      key = hash_combine(key, config_.distill.hash());
    }
    if (method == FtMethod::kKd || method == FtMethod::kSelfDataDistillKd) {
      key = hash_combine(key, config_.kd.hash());
    }
    if (method == FtMethod::kSftReplay) {
      key = hash_combine(key, fnv1a_value(config_.replay_ratio));
    }
  }
  return key;
}

nn::TransformerLM Pipeline::recovered(std::int64_t block_size, FtMethod method,
                                      const std::string& dataset_name,
                                      std::int64_t size) {
  if (method == FtMethod::kNone) return prune(block_size).model.clone();

  const std::uint64_t key = recovered_key(block_size, method, dataset_name, size);
  // Dataset construction (which may itself run the supervised "distill"
  // stage) stays outside so the recover stage's deadline covers fine-tuning
  // only, and nested stages keep distinct names in logs.
  if (auto cached = cache_.load_model(key)) return std::move(*cached);

  const auto make_dataset = [&]() -> data::SftDataset {
    switch (method) {
      case FtMethod::kSelfDataDistill:
      case FtMethod::kSelfDataDistillKd:
        return distilled_dataset(dataset_name, size);
      case FtMethod::kSftReplay:
        return replay_dataset(dataset_name, size);
      default:
        return raw_dataset(dataset_name, size);
    }
  };
  const data::SftDataset dataset = make_dataset();

  return supervisor::supervised(
      "recover:" + method_name(method), config_.supervise,
      [&]() -> nn::TransformerLM {
        if (auto cached = cache_.load_model(key)) return std::move(*cached);

        nn::TransformerLM model = prune(block_size).model.clone();
        model.attach_lora(config_.lora,
                          lora_seed(config_, block_size, method, dataset_name, size));
        const bool use_kd =
            method == FtMethod::kKd || method == FtMethod::kSelfDataDistillKd;
        train::SftTrainConfig sft_config = config_.sft;
        sft_config.checkpoint_path = cache_.checkpoint_path(key);
        const train::TrainStats stats =
            use_kd ? kd_train(model, base_model(), dataset, sft_config, config_.kd)
                   : train::sft_train(model, dataset, sft_config);
        model.merge_lora();
        log_info("pipeline: ", method_name(method), " on ", dataset.name,
                 " n=", block_size, " loss ", stats.initial_loss, " -> ",
                 stats.final_loss);
        store_model_best_effort(key, model, "recovered model");
        return model;
      });
}

nn::TransformerLM Pipeline::merged(std::int64_t block_size, const std::string& dataset_a,
                                   std::int64_t size_a, const std::string& dataset_b,
                                   std::int64_t size_b, float t) {
  const nn::TransformerLM model_a =
      recovered(block_size, FtMethod::kSelfDataDistill, dataset_a, size_a);
  const nn::TransformerLM model_b =
      recovered(block_size, FtMethod::kSelfDataDistill, dataset_b, size_b);
  return merge_models(model_a, model_b, t, MergeMode::kSlerpPerTensor);
}

}  // namespace sdd::core
