#include "core/width_prune.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sdd::core {
namespace {

// L2 norm of row r of a [rows, cols] matrix.
double row_norm(std::span<const float> data, std::int64_t cols, std::int64_t row) {
  double sum = 0.0;
  for (std::int64_t c = 0; c < cols; ++c) {
    const float v = data[static_cast<std::size_t>(row * cols + c)];
    sum += static_cast<double>(v) * v;
  }
  return std::sqrt(sum);
}

// L2 norm of column c of a [rows, cols] matrix.
double col_norm(std::span<const float> data, std::int64_t rows, std::int64_t cols,
                std::int64_t col) {
  double sum = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float v = data[static_cast<std::size_t>(r * cols + col)];
    sum += static_cast<double>(v) * v;
  }
  return std::sqrt(sum);
}

// Build a Linear from selected rows (keep[i] gives source row of new row i).
Tensor select_rows(const Tensor& weight, const std::vector<std::int64_t>& keep) {
  const std::int64_t cols = weight.dim(1);
  Tensor out = Tensor::zeros({static_cast<std::int64_t>(keep.size()), cols},
                             /*requires_grad=*/true);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const float* src = weight.data().data() + keep[i] * cols;
    std::copy(src, src + cols,
              out.data().data() + static_cast<std::int64_t>(i) * cols);
  }
  return out;
}

Tensor select_cols(const Tensor& weight, const std::vector<std::int64_t>& keep) {
  const std::int64_t rows = weight.dim(0);
  const std::int64_t cols = weight.dim(1);
  Tensor out = Tensor::zeros({rows, static_cast<std::int64_t>(keep.size())},
                             /*requires_grad=*/true);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < keep.size(); ++i) {
      out.data()[static_cast<std::size_t>(r) * keep.size() + i] =
          weight.data()[static_cast<std::size_t>(r * cols + keep[i])];
    }
  }
  return out;
}

}  // namespace

WidthPruneResult width_prune_ffn(const nn::TransformerLM& model, double fraction) {
  if (fraction < 0.0 || fraction >= 1.0) {
    throw std::invalid_argument("width_prune_ffn: fraction must be in [0, 1)");
  }
  WidthPruneResult result;
  result.model = model.clone();

  const std::int64_t params_before = model.param_count();
  const std::int64_t d_ff = model.config().d_ff;
  const auto remove =
      static_cast<std::int64_t>(std::floor(fraction * static_cast<double>(d_ff)));
  result.channels_removed_per_layer = remove;
  if (remove == 0) return result;

  for (std::int64_t l = 0; l < result.model.n_layers(); ++l) {
    nn::SwiGluMlp& mlp = result.model.block(static_cast<std::size_t>(l)).mlp();
    const Tensor& gate = mlp.w_gate().weight();
    const Tensor& up = mlp.w_up().weight();
    const Tensor& down = mlp.w_down().weight();
    const std::int64_t d_model = gate.dim(1);
    const std::int64_t layer_ff = gate.dim(0);

    // Channel importance: product of the three connected weight norms.
    std::vector<double> scores(static_cast<std::size_t>(layer_ff));
    for (std::int64_t j = 0; j < layer_ff; ++j) {
      scores[static_cast<std::size_t>(j)] =
          row_norm(gate.data(), d_model, j) * row_norm(up.data(), d_model, j) *
          col_norm(down.data(), d_model, layer_ff, j);
    }

    // Keep the top (layer_ff - remove) channels, preserving original order so
    // the projection layout stays stable.
    std::vector<std::int64_t> order(static_cast<std::size_t>(layer_ff));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
      return scores[static_cast<std::size_t>(a)] > scores[static_cast<std::size_t>(b)];
    });
    std::vector<std::int64_t> keep(order.begin(),
                                   order.begin() + (layer_ff - remove));
    std::sort(keep.begin(), keep.end());

    mlp.w_gate().weight() = select_rows(gate, keep);
    mlp.w_up().weight() = select_rows(up, keep);
    mlp.w_down().weight() = select_cols(down, keep);
  }

  // The narrowed weights move into a model whose config names the new
  // width, so the model saves and loads like any other.
  nn::ModelConfig narrow = model.config();
  narrow.d_ff = d_ff - remove;
  nn::TransformerLM narrowed{narrow, /*seed=*/0};
  const nn::ParamList from = result.model.parameters();
  nn::ParamList to = narrowed.parameters();
  for (std::size_t i = 0; i < to.size(); ++i) {
    to[i].tensor.copy_from(from[i].tensor.data());
  }
  result.model = std::move(narrowed);

  result.param_savings =
      static_cast<double>(params_before - result.model.param_count()) /
      static_cast<double>(params_before);
  return result;
}

double width_fraction_matching_depth(const nn::ModelConfig& config,
                                     std::int64_t depth_blocks) {
  const std::int64_t d = config.d_model;
  const double per_layer_ffn = static_cast<double>(3 * d * config.d_ff);
  const double per_layer_total =
      static_cast<double>(4 * d * d) + per_layer_ffn + static_cast<double>(2 * d);
  const double removed = static_cast<double>(depth_blocks) * per_layer_total;
  const double ffn_total = static_cast<double>(config.n_layers) * per_layer_ffn;
  return std::min(0.95, removed / ffn_total);
}

}  // namespace sdd::core
