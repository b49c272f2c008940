// Structured depth pruning (paper §2.1, Algorithm 1).
//
// Three layer-importance metrics are implemented:
//   kAngularCosine    - Eq. 1: angular distance between the residual stream at
//                       block boundary l and l+n, measured at the final token
//                       position (Gromov et al., 2024). Used by default.
//   kBlockInfluence   - 1 - E_{X,i} cos(x_i^(l), x_i^(l+n)); the BI score of
//                       Men et al. (2024), averaged over all token positions.
//   kRelativeMagnitude- ||h^(l+n) - h^(l)|| / ||h^(l+n)|| (Samragh et al.,
//                       2023), averaged over all token positions.
// All metrics are computed on a representative calibration set (the repo's
// RedPajama stand-in; see data::build_calibration_set).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/vocab.hpp"
#include "nn/transformer.hpp"

namespace sdd::core {

enum class ImportanceMetric { kAngularCosine, kBlockInfluence, kRelativeMagnitude };

// Names in enumerator order (the config text form writes these).
constexpr std::array<std::string_view, 3> enum_names(ImportanceMetric) {
  return {"angular_cosine", "block_influence", "relative_magnitude"};
}

std::string metric_name(ImportanceMetric metric);

// Distance curve for a fixed block size n: distances[l] is the metric value
// for removing blocks [l, l+n), l in [0, L-n]. Lower = more redundant.
struct BlockDistanceCurve {
  std::int64_t block_size = 0;
  ImportanceMetric metric = ImportanceMetric::kAngularCosine;
  std::vector<double> distances;
  std::int64_t best_start = 0;  // argmin (Algorithm 1 line 8)
  double best_distance = 0.0;
};

BlockDistanceCurve compute_block_distances(
    const nn::TransformerLM& model,
    const std::vector<std::vector<data::TokenId>>& calibration, std::int64_t block_size,
    ImportanceMetric metric);

// Per-layer importance (block size 1) — the curves in Figure 2 left/center.
std::vector<double> layer_importance(
    const nn::TransformerLM& model,
    const std::vector<std::vector<data::TokenId>>& calibration,
    ImportanceMetric metric);

// Algorithm 1 end to end: find the optimal block and return the pruned model.
struct PruneResult {
  std::int64_t start = 0;
  std::int64_t block_size = 0;
  double distance = 0.0;
  BlockDistanceCurve curve;
  nn::TransformerLM model;
};

PruneResult prune_model(const nn::TransformerLM& model,
                        const std::vector<std::vector<data::TokenId>>& calibration,
                        std::int64_t block_size,
                        ImportanceMetric metric = ImportanceMetric::kAngularCosine);

}  // namespace sdd::core
