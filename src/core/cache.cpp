#include "core/cache.hpp"

#include <algorithm>
#include <system_error>
#include <utility>
#include <vector>

#include "util/env.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"

namespace sdd::core {
namespace {
constexpr std::string_view kDatasetMagic = "SDDDATA1";
constexpr std::uint32_t kDatasetVersion = 1;
}  // namespace

ExperimentCache::ExperimentCache(std::filesystem::path directory,
                                 std::int64_t quarantine_keep)
    : directory_{std::move(directory)} {
  std::filesystem::create_directories(directory_ / "models");
  std::filesystem::create_directories(directory_ / "datasets");
  std::filesystem::create_directories(directory_ / "checkpoints");
  if (quarantine_keep < 0) quarantine_keep = env_int("SDD_QUARANTINE_KEEP", 8);
  prune_quarantine(quarantine_keep);
}

void ExperimentCache::prune_quarantine(std::int64_t keep) const {
  // Collect every *.corrupt file under the cache; errors (races with
  // concurrent processes, permissions) only shrink the list — pruning the
  // quarantine is best-effort hygiene, never a correctness requirement.
  std::vector<std::pair<std::filesystem::file_time_type, std::filesystem::path>>
      corrupt;
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator
           it{directory_, std::filesystem::directory_options::skip_permission_denied,
              ec},
       end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec) || ec) continue;
    if (it->path().extension() != ".corrupt") continue;
    const auto mtime = it->last_write_time(ec);
    if (ec) continue;
    corrupt.emplace_back(mtime, it->path());
  }
  if (std::cmp_less_equal(corrupt.size(), keep)) return;
  std::sort(corrupt.begin(), corrupt.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::int64_t removed = 0;
  for (std::size_t i = static_cast<std::size_t>(std::max<std::int64_t>(keep, 0));
       i < corrupt.size(); ++i) {
    std::error_code rm_ec;
    if (std::filesystem::remove(corrupt[i].second, rm_ec) && !rm_ec) ++removed;
  }
  if (removed > 0) {
    log_info("cache: pruned ", removed, " quarantined artifact(s), keeping the ",
             keep, " newest (SDD_QUARANTINE_KEEP)");
  }
}

std::filesystem::path ExperimentCache::model_path(std::uint64_t key) const {
  return directory_ / "models" / (hash_hex(key) + ".bin");
}
std::filesystem::path ExperimentCache::dataset_path(std::uint64_t key) const {
  return directory_ / "datasets" / (hash_hex(key) + ".bin");
}
std::filesystem::path ExperimentCache::checkpoint_path(std::uint64_t key) const {
  return directory_ / "checkpoints" / (hash_hex(key) + ".ckpt");
}

void ExperimentCache::quarantine(const std::filesystem::path& path,
                                 const char* kind, const char* reason) const {
  ++quarantined_;
  log_warn("cache: corrupt ", kind, " artifact ", path.string(), ": ", reason,
           " — quarantined to *.corrupt, treating as cache miss");
  quarantine_artifact(path);
}

std::optional<nn::TransformerLM> ExperimentCache::load_model(std::uint64_t key) const {
  const auto path = model_path(key);
  if (!std::filesystem::exists(path)) return std::nullopt;
  try {
    return nn::TransformerLM::load(path);
  } catch (const SerializeError& e) {
    quarantine(path, "model", e.what());
    return std::nullopt;
  }
}

void ExperimentCache::store_model(std::uint64_t key,
                                  const nn::TransformerLM& model) const {
  model.save(model_path(key));
}

std::optional<data::SftDataset> ExperimentCache::load_dataset(
    std::uint64_t key) const {
  const auto path = dataset_path(key);
  if (!std::filesystem::exists(path)) return std::nullopt;
  try {
    BinaryReader reader{path};
    reader.expect_magic(kDatasetMagic, kDatasetVersion);
    data::SftDataset dataset;
    dataset.name = reader.read_string();
    dataset.family = static_cast<data::TaskFamily>(reader.read_u32());
    const std::uint64_t n = reader.read_u64();
    dataset.examples.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      data::SftExample example;
      example.prompt = reader.read_vector<data::TokenId>();
      example.target = reader.read_vector<data::TokenId>();
      example.extract = static_cast<data::ExtractKind>(reader.read_u32());
      example.numeric_answer = reader.read_i64();
      example.answer_key = reader.read_vector<data::TokenId>();
      dataset.examples.push_back(std::move(example));
    }
    return dataset;
  } catch (const SerializeError& e) {
    quarantine(path, "dataset", e.what());
    return std::nullopt;
  }
}

void ExperimentCache::store_dataset(std::uint64_t key,
                                    const data::SftDataset& dataset) const {
  BinaryWriter writer{dataset_path(key)};
  writer.write_magic(kDatasetMagic, kDatasetVersion);
  writer.write_string(dataset.name);
  writer.write_u32(static_cast<std::uint32_t>(dataset.family));
  writer.write_u64(dataset.examples.size());
  for (const data::SftExample& example : dataset.examples) {
    writer.write_vector(example.prompt);
    writer.write_vector(example.target);
    writer.write_u32(static_cast<std::uint32_t>(example.extract));
    writer.write_i64(example.numeric_answer);
    writer.write_vector(example.answer_key);
  }
  writer.flush();
}

}  // namespace sdd::core
