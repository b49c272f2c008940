#include "nn/block.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace sdd::nn {

// ---------------------------------------------------------------- RMSNorm

RMSNorm::RMSNorm(std::int64_t dim) {
  weight_ = Tensor::full(Shape{dim}, 1.0F, /*requires_grad=*/true);
}

Tensor RMSNorm::forward(const Tensor& x, float eps) const {
  return ops::rmsnorm(x, weight_, eps);
}

void RMSNorm::apply(const float* x, float* out, std::int64_t rows, float eps) const {
  kernels::rmsnorm_forward(x, weight_.data().data(), out, rows, weight_.dim(0), eps,
                           /*inv_rms=*/nullptr);
}

void RMSNorm::collect_parameters(const std::string& prefix, ParamList& out) const {
  out.push_back({prefix + ".weight", weight_});
}

void RMSNorm::collect_trainable(const std::string& prefix, ParamList& out) const {
  if (weight_.requires_grad()) out.push_back({prefix + ".weight", weight_});
}

RMSNorm RMSNorm::clone() const {
  RMSNorm copy;
  copy.weight_ = weight_.clone();
  return copy;
}

// --------------------------------------------------- CausalSelfAttention

CausalSelfAttention::CausalSelfAttention(const ModelConfig& config, Rng& rng)
    : wq_{config.d_model, config.d_model, rng},
      wk_{config.d_model, config.d_model, rng},
      wv_{config.d_model, config.d_model, rng},
      wo_{config.d_model, config.d_model, rng},
      n_heads_{config.n_heads},
      rope_base_{config.rope_base} {}

Tensor CausalSelfAttention::forward(const Tensor& x) const {
  const Tensor q = wq_.forward(x);
  const Tensor k = wk_.forward(x);
  const Tensor v = wv_.forward(x);
  const Tensor attn = ops::causal_self_attention(q, k, v, n_heads_, rope_base_);
  return wo_.forward(attn);
}

void CausalSelfAttention::step(const float* x, float* out, LayerKVCache& cache,
                               std::int64_t pos) const {
  const KVSegment segment{&cache, pos, 1};
  step_segments(x, out, {&segment, 1});
}

void CausalSelfAttention::step_segments(const float* x, float* out,
                                        std::span<const KVSegment> segments) const {
  const std::int64_t channels = wq_.out_features();
  const std::int64_t head_dim = channels / n_heads_;
  const float inv_sqrt_d = 1.0F / std::sqrt(static_cast<float>(head_dim));

  std::int64_t rows = 0;
  std::int64_t max_context = 0;
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const KVSegment& seg = segments[s];
    const LayerKVCache& cache = *seg.cache;
    if (static_cast<std::size_t>((seg.pos + seg.rows) * channels) > cache.keys.size()) {
      throw std::logic_error("attention span: KV cache overflow");
    }
    if (seg.pos != cache.length) {
      throw std::logic_error("attention span: position does not match cache length");
    }
    for (std::size_t other = 0; other < s; ++other) {
      if (segments[other].cache == seg.cache) {
        throw std::invalid_argument("attention span: a KV cache appears twice in one pass");
      }
    }
    rows += seg.rows;
    max_context = std::max(max_context, seg.pos + seg.rows);
  }

  // Batched projections: each weight row streams through the cache once for
  // every row of every segment, with per-row results independent of the row
  // count and of the neighbouring rows (Linear::apply).
  const auto floats = static_cast<std::size_t>(rows * channels);
  std::vector<float> q(floats);
  std::vector<float> k(floats);
  std::vector<float> v(floats);
  wq_.apply(x, q.data(), rows);
  wk_.apply(x, k.data(), rows);
  wv_.apply(x, v.data(), rows);

  // Per segment: its K/V rows land in consecutive slots of its own cache,
  // then the mixing runs causally. Token t attends to positions [0, pos+t],
  // which include the earlier tokens of its segment — whose keys/values are
  // already in the cache exactly as a per-token loop would have left them,
  // so every head's kernels::attend call matches the one-token step bitwise.
  std::vector<float> mixed(floats);
  std::vector<float> scores(static_cast<std::size_t>(max_context));
  std::int64_t row = 0;
  for (const KVSegment& seg : segments) {
    LayerKVCache& cache = *seg.cache;
    if (!cache.rope || cache.rope->positions() < seg.pos + seg.rows ||
        cache.rope->head_dim() != head_dim) {
      cache.rope = kernels::RopeTable::get(head_dim, rope_base_, seg.pos + seg.rows);
    }
    const std::size_t offset = static_cast<std::size_t>(row * channels);
    const std::size_t count = static_cast<std::size_t>(seg.rows * channels);
    float* k_rows = cache.keys.data() + seg.pos * channels;
    float* v_rows = cache.values.data() + seg.pos * channels;
    std::memcpy(k_rows, k.data() + offset, count * sizeof(float));
    std::memcpy(v_rows, v.data() + offset, count * sizeof(float));
    for (std::int64_t t = 0; t < seg.rows; ++t) {
      cache.rope->apply(q.data() + (row + t) * channels, n_heads_, seg.pos + t, 1.0F);
      cache.rope->apply(k_rows + t * channels, n_heads_, seg.pos + t, 1.0F);
    }
    cache.length = seg.pos + seg.rows;

    for (std::int64_t t = 0; t < seg.rows; ++t) {
      for (std::int64_t h = 0; h < n_heads_; ++h) {
        const std::int64_t head = (row + t) * channels + h * head_dim;
        kernels::attend(q.data() + head, cache.keys.data() + h * head_dim,
                        cache.values.data() + h * head_dim, channels, seg.pos + t + 1,
                        head_dim, inv_sqrt_d, scores.data(), mixed.data() + head);
      }
    }
    row += seg.rows;
  }
  wo_.apply(mixed.data(), out, rows);
}

void CausalSelfAttention::collect_parameters(const std::string& prefix,
                                             ParamList& out) const {
  wq_.collect_parameters(prefix + ".wq", out);
  wk_.collect_parameters(prefix + ".wk", out);
  wv_.collect_parameters(prefix + ".wv", out);
  wo_.collect_parameters(prefix + ".wo", out);
}

void CausalSelfAttention::collect_trainable(const std::string& prefix,
                                            ParamList& out) const {
  wq_.collect_trainable(prefix + ".wq", out);
  wk_.collect_trainable(prefix + ".wk", out);
  wv_.collect_trainable(prefix + ".wv", out);
  wo_.collect_trainable(prefix + ".wo", out);
}

CausalSelfAttention CausalSelfAttention::clone() const {
  CausalSelfAttention copy;
  copy.wq_ = wq_.clone();
  copy.wk_ = wk_.clone();
  copy.wv_ = wv_.clone();
  copy.wo_ = wo_.clone();
  copy.n_heads_ = n_heads_;
  copy.rope_base_ = rope_base_;
  return copy;
}

// ------------------------------------------------------------- SwiGluMlp

SwiGluMlp::SwiGluMlp(const ModelConfig& config, Rng& rng)
    : w_gate_{config.d_model, config.d_ff, rng},
      w_up_{config.d_model, config.d_ff, rng},
      w_down_{config.d_ff, config.d_model, rng} {}

Tensor SwiGluMlp::forward(const Tensor& x) const {
  const Tensor gate = w_gate_.forward(x);
  const Tensor up = w_up_.forward(x);
  return w_down_.forward(ops::swiglu(gate, up));
}

void SwiGluMlp::step(const float* x, float* out) const { step_span(x, out, 1); }

void SwiGluMlp::step_span(const float* x, float* out, std::int64_t count) const {
  const std::int64_t d_ff = w_gate_.out_features();
  std::vector<float> gate(static_cast<std::size_t>(count * d_ff));
  std::vector<float> up(static_cast<std::size_t>(count * d_ff));
  w_gate_.apply(x, gate.data(), count);
  w_up_.apply(x, up.data(), count);
  // silu_mul's arithmetic per element does not depend on its offset, so one
  // call over all rows equals a call per row.
  kernels::silu_mul(gate.data(), up.data(), gate.data(), count * d_ff);
  w_down_.apply(gate.data(), out, count);
}

void SwiGluMlp::collect_parameters(const std::string& prefix, ParamList& out) const {
  w_gate_.collect_parameters(prefix + ".gate", out);
  w_up_.collect_parameters(prefix + ".up", out);
  w_down_.collect_parameters(prefix + ".down", out);
}

void SwiGluMlp::collect_trainable(const std::string& prefix, ParamList& out) const {
  w_gate_.collect_trainable(prefix + ".gate", out);
  w_up_.collect_trainable(prefix + ".up", out);
  w_down_.collect_trainable(prefix + ".down", out);
}

SwiGluMlp SwiGluMlp::clone() const {
  SwiGluMlp copy;
  copy.w_gate_ = w_gate_.clone();
  copy.w_up_ = w_up_.clone();
  copy.w_down_ = w_down_.clone();
  return copy;
}

// ------------------------------------------------------ TransformerBlock

TransformerBlock::TransformerBlock(const ModelConfig& config, Rng& rng)
    : norm1_{config.d_model},
      norm2_{config.d_model},
      attn_{config, rng},
      mlp_{config, rng},
      eps_{config.rmsnorm_eps} {}

Tensor TransformerBlock::forward(const Tensor& x) const {
  const Tensor attn_out = attn_.forward(norm1_.forward(x, eps_));
  const Tensor mid = ops::add(x, attn_out);
  const Tensor mlp_out = mlp_.forward(norm2_.forward(mid, eps_));
  return ops::add(mid, mlp_out);
}

void TransformerBlock::step_segments(float* x,
                                     std::span<const KVSegment> segments) const {
  const std::int64_t channels = norm1_.weight().dim(0);
  std::int64_t rows = 0;
  for (const KVSegment& seg : segments) rows += seg.rows;
  std::vector<float> normed(static_cast<std::size_t>(rows * channels));
  std::vector<float> delta(static_cast<std::size_t>(rows * channels));

  // rmsnorm_forward computes rows independently through one shared row body
  // and axpy is elementwise, so these all-row calls are bitwise-identical to
  // per-row calls.
  norm1_.apply(x, normed.data(), rows, eps_);
  attn_.step_segments(normed.data(), delta.data(), segments);
  kernels::axpy(1.0F, delta.data(), x, rows * channels, /*accumulate=*/true);

  norm2_.apply(x, normed.data(), rows, eps_);
  mlp_.step_span(normed.data(), delta.data(), rows);
  kernels::axpy(1.0F, delta.data(), x, rows * channels, /*accumulate=*/true);
}

void TransformerBlock::collect_parameters(const std::string& prefix,
                                          ParamList& out) const {
  norm1_.collect_parameters(prefix + ".norm1", out);
  attn_.collect_parameters(prefix + ".attn", out);
  norm2_.collect_parameters(prefix + ".norm2", out);
  mlp_.collect_parameters(prefix + ".mlp", out);
}

void TransformerBlock::collect_trainable(const std::string& prefix,
                                         ParamList& out) const {
  norm1_.collect_trainable(prefix + ".norm1", out);
  attn_.collect_trainable(prefix + ".attn", out);
  norm2_.collect_trainable(prefix + ".norm2", out);
  mlp_.collect_trainable(prefix + ".mlp", out);
}

TransformerBlock TransformerBlock::clone() const {
  TransformerBlock copy;
  copy.norm1_ = norm1_.clone();
  copy.norm2_ = norm2_.clone();
  copy.attn_ = attn_.clone();
  copy.mlp_ = mlp_.clone();
  copy.eps_ = eps_;
  return copy;
}

}  // namespace sdd::nn
