// On-disk experiment cache.
//
// Every expensive model artifact (pre-trained base model, distilled
// dataset, fine-tuned checkpoint) is stored under a content-derived 64-bit
// key so that experiments share work: the figure rows reuse the table rows'
// models, and re-runs are incremental. Eval scores live in the eval memo
// (fleet::run_eval_suite) under `<cache>/fleet/`. Delete the cache directory
// for a cold run.
//
// Durability contract: stores are atomic (tmp + fsync + rename through
// util/serialize) and loads treat a corrupt, truncated, or version-stale
// artifact as a cache miss — the file is logged, quarantined to
// `<name>.corrupt`, and the caller recomputes. A killed process or a torn
// write can therefore never poison the cache or crash a bench.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>

#include "data/sft.hpp"
#include "nn/transformer.hpp"

namespace sdd::core {

class ExperimentCache {
 public:
  // `quarantine_keep` bounds how many `*.corrupt` quarantine files survive
  // under the cache directory: opening the store keeps the newest N (by
  // last-write time) and deletes the rest, so repeated fault-injection runs
  // cannot grow the cache without bound. -1 (the default) reads
  // SDD_QUARANTINE_KEEP (default 8); 0 keeps none.
  explicit ExperimentCache(std::filesystem::path directory,
                           std::int64_t quarantine_keep = -1);

  const std::filesystem::path& directory() const { return directory_; }

  std::optional<nn::TransformerLM> load_model(std::uint64_t key) const;
  void store_model(std::uint64_t key, const nn::TransformerLM& model) const;

  std::optional<data::SftDataset> load_dataset(std::uint64_t key) const;
  void store_dataset(std::uint64_t key, const data::SftDataset& dataset) const;

  // Where a training loop keyed by `key` keeps its mid-run checkpoint (see
  // train::PretrainConfig::checkpoint_path).
  std::filesystem::path checkpoint_path(std::uint64_t key) const;

  // Number of artifacts quarantined by this cache instance (observability +
  // test hook).
  std::int64_t quarantined_count() const { return quarantined_; }

  std::filesystem::path model_path(std::uint64_t key) const;
  std::filesystem::path dataset_path(std::uint64_t key) const;

 private:
  void quarantine(const std::filesystem::path& path, const char* kind,
                  const char* reason) const;
  void prune_quarantine(std::int64_t keep) const;

  std::filesystem::path directory_;
  mutable std::int64_t quarantined_ = 0;
};

}  // namespace sdd::core
