#include "core/prune.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sdd::core {
namespace {

double cosine_similarity(const float* a, const float* b, std::int64_t n) {
  double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    norm_a += static_cast<double>(a[i]) * a[i];
    norm_b += static_cast<double>(b[i]) * b[i];
  }
  const double denom = std::sqrt(norm_a) * std::sqrt(norm_b);
  if (denom == 0.0) return 0.0;
  return std::clamp(dot / denom, -1.0, 1.0);
}

// Metric between two residual-stream snapshots (flat [batch*seq, C]).
double boundary_distance(const std::vector<float>& lower,
                         const std::vector<float>& upper, std::int64_t seq,
                         std::int64_t channels, ImportanceMetric metric) {
  const std::int64_t positions = static_cast<std::int64_t>(lower.size()) / channels;
  switch (metric) {
    case ImportanceMetric::kAngularCosine: {
      // Final token of each sequence only (Eq. 1).
      double total = 0.0;
      std::int64_t count = 0;
      for (std::int64_t p = seq - 1; p < positions; p += seq) {
        const double cos_sim = cosine_similarity(lower.data() + p * channels,
                                                 upper.data() + p * channels, channels);
        total += std::acos(cos_sim) / std::numbers::pi;
        ++count;
      }
      return total / static_cast<double>(count);
    }
    case ImportanceMetric::kBlockInfluence: {
      double total = 0.0;
      for (std::int64_t p = 0; p < positions; ++p) {
        total += 1.0 - cosine_similarity(lower.data() + p * channels,
                                         upper.data() + p * channels, channels);
      }
      return total / static_cast<double>(positions);
    }
    case ImportanceMetric::kRelativeMagnitude: {
      double total = 0.0;
      for (std::int64_t p = 0; p < positions; ++p) {
        double diff_sq = 0.0, upper_sq = 0.0;
        const float* lo = lower.data() + p * channels;
        const float* up = upper.data() + p * channels;
        for (std::int64_t c = 0; c < channels; ++c) {
          const double d = static_cast<double>(up[c]) - lo[c];
          diff_sq += d * d;
          upper_sq += static_cast<double>(up[c]) * up[c];
        }
        total += upper_sq > 0.0 ? std::sqrt(diff_sq / upper_sq) : 0.0;
      }
      return total / static_cast<double>(positions);
    }
  }
  throw std::logic_error("boundary_distance: unknown metric");
}

}  // namespace

std::string metric_name(ImportanceMetric metric) {
  const auto index = static_cast<std::size_t>(metric);
  return index < enum_names(metric).size() ? std::string{enum_names(metric)[index]}
                                           : "unknown";
}

BlockDistanceCurve compute_block_distances(
    const nn::TransformerLM& model,
    const std::vector<std::vector<data::TokenId>>& calibration,
    std::int64_t block_size, ImportanceMetric metric) {
  const std::int64_t n_layers = model.n_layers();
  if (block_size <= 0 || block_size >= n_layers) {
    throw std::invalid_argument("compute_block_distances: bad block size");
  }
  if (calibration.empty()) {
    throw std::invalid_argument("compute_block_distances: empty calibration set");
  }
  const std::int64_t seq = static_cast<std::int64_t>(calibration.front().size());
  const std::int64_t channels = model.config().d_model;

  BlockDistanceCurve curve;
  curve.block_size = block_size;
  curve.metric = metric;
  // Accumulate per-start distances across calibration sequences. Candidate
  // starts l run over block boundaries [0, L-n]; states[l] is the input of
  // block l, states[l+n] the input of block l+n (Algorithm 1 lines 2-5).
  const std::int64_t n_candidates = n_layers - block_size + 1;
  std::vector<double> sums(static_cast<std::size_t>(n_candidates), 0.0);

  for (const std::vector<data::TokenId>& sample : calibration) {
    if (static_cast<std::int64_t>(sample.size()) != seq) {
      throw std::invalid_argument("compute_block_distances: ragged calibration set");
    }
    const auto states = model.hidden_states(sample, /*batch=*/1, seq);
    for (std::int64_t start = 0; start < n_candidates; ++start) {
      sums[static_cast<std::size_t>(start)] += boundary_distance(
          states[static_cast<std::size_t>(start)],
          states[static_cast<std::size_t>(start + block_size)], seq, channels, metric);
    }
  }
  curve.distances.resize(sums.size());
  for (std::size_t i = 0; i < sums.size(); ++i) {
    curve.distances[i] = sums[i] / static_cast<double>(calibration.size());
  }

  const auto best = std::min_element(curve.distances.begin(), curve.distances.end());
  curve.best_start = best - curve.distances.begin();
  curve.best_distance = *best;
  return curve;
}

std::vector<double> layer_importance(
    const nn::TransformerLM& model,
    const std::vector<std::vector<data::TokenId>>& calibration,
    ImportanceMetric metric) {
  const BlockDistanceCurve curve =
      compute_block_distances(model, calibration, /*block_size=*/1, metric);
  // distances has L candidates for block size 1 (starts 0..L-1); each is the
  // importance of the single layer at that start.
  std::vector<double> importance{curve.distances};
  importance.resize(static_cast<std::size_t>(model.n_layers()));
  return importance;
}

PruneResult prune_model(const nn::TransformerLM& model,
                        const std::vector<std::vector<data::TokenId>>& calibration,
                        std::int64_t block_size, ImportanceMetric metric) {
  PruneResult result;
  result.curve = compute_block_distances(model, calibration, block_size, metric);
  result.start = result.curve.best_start;
  result.block_size = block_size;
  result.distance = result.curve.best_distance;
  result.model = model.pruned(result.start, block_size);
  return result;
}

}  // namespace sdd::core
