// Decoder block: pre-norm causal self-attention + SwiGLU MLP with residuals,
// the same block structure as Llama-family models (RMSNorm, RoPE, no biases).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/config.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "tensor/rope_cache.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sdd::nn {

// Per-layer key/value cache for incremental decoding. Keys are stored
// *post-RoPE* so each step only rotates the new position. The decode session
// also pins the precomputed RoPE cos/sin table here (sized to max_seq_len by
// make_decode_state) so per-token steps never touch the table cache mutex.
struct LayerKVCache {
  std::vector<float> keys;    // [max_seq, C], rotated
  std::vector<float> values;  // [max_seq, C]
  std::shared_ptr<const kernels::RopeTable> rope;
  std::int64_t length = 0;

  void reset() noexcept { length = 0; }
};

// One session's share of a ragged multi-session decode pass: `rows`
// consecutive tokens appended to `cache` at positions pos..pos+rows-1
// (pos must equal cache->length).
struct KVSegment {
  LayerKVCache* cache = nullptr;
  std::int64_t pos = 0;
  std::int64_t rows = 0;
};

class RMSNorm {
 public:
  RMSNorm() = default;
  explicit RMSNorm(std::int64_t dim);

  Tensor forward(const Tensor& x, float eps) const;
  void apply(const float* x, float* out, std::int64_t rows, float eps) const;

  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }

  void collect_parameters(const std::string& prefix, ParamList& out) const;
  void collect_trainable(const std::string& prefix, ParamList& out) const;
  RMSNorm clone() const;

 private:
  Tensor weight_;  // [dim], initialized to ones
};

class CausalSelfAttention {
 public:
  CausalSelfAttention() = default;
  CausalSelfAttention(const ModelConfig& config, Rng& rng);

  Tensor forward(const Tensor& x) const;  // x: [B, T, C]

  // Single-token decode step: x is one [C] vector at position `pos`
  // (a one-row, one-segment step_segments).
  void step(const float* x, float* out, LayerKVCache& cache, std::int64_t pos) const;

  // Ragged multi-session decode: x/out hold the rows of every segment
  // stacked in segment order. The linear projections run once over all rows
  // (each weight block streamed once per pass, see Linear::apply) while
  // RoPE, the K/V cache writes and the attention mixing stay per segment,
  // causally sequential inside it and against that segment's own cache.
  // Every row is bitwise-identical to feeding its session one token at a
  // time, whatever else shares the pass. Throws before touching any cache
  // when a segment is inconsistent or a cache appears twice.
  void step_segments(const float* x, float* out,
                     std::span<const KVSegment> segments) const;

  Linear& wq() { return wq_; }
  Linear& wk() { return wk_; }
  Linear& wv() { return wv_; }
  Linear& wo() { return wo_; }
  const Linear& wq() const { return wq_; }
  const Linear& wo() const { return wo_; }

  void collect_parameters(const std::string& prefix, ParamList& out) const;
  void collect_trainable(const std::string& prefix, ParamList& out) const;
  CausalSelfAttention clone() const;

 private:
  Linear wq_, wk_, wv_, wo_;
  std::int64_t n_heads_ = 0;
  float rope_base_ = 10000.0F;
};

class SwiGluMlp {
 public:
  SwiGluMlp() = default;
  SwiGluMlp(const ModelConfig& config, Rng& rng);

  Tensor forward(const Tensor& x) const;
  void step(const float* x, float* out) const;  // single [C] vector
  // Row-batched step, bitwise-identical to `count` single-row step() calls
  // (the MLP holds no per-session state, so rows may come from any mix of
  // sessions).
  void step_span(const float* x, float* out, std::int64_t count) const;

  Linear& w_gate() { return w_gate_; }
  Linear& w_up() { return w_up_; }
  Linear& w_down() { return w_down_; }
  const Linear& w_gate() const { return w_gate_; }

  void collect_parameters(const std::string& prefix, ParamList& out) const;
  void collect_trainable(const std::string& prefix, ParamList& out) const;
  SwiGluMlp clone() const;

 private:
  Linear w_gate_, w_up_, w_down_;
};

class TransformerBlock {
 public:
  TransformerBlock() = default;
  TransformerBlock(const ModelConfig& config, Rng& rng);

  Tensor forward(const Tensor& x) const;

  // In-place decode of the stacked rows x[R, C] of every segment (R = sum
  // of segment rows); see CausalSelfAttention::step_segments. This is the
  // block's only decode body: a single token or a one-session span is the
  // one-segment case.
  void step_segments(float* x, std::span<const KVSegment> segments) const;

  CausalSelfAttention& attention() { return attn_; }
  SwiGluMlp& mlp() { return mlp_; }
  const CausalSelfAttention& attention() const { return attn_; }
  const SwiGluMlp& mlp() const { return mlp_; }
  RMSNorm& norm1() { return norm1_; }
  RMSNorm& norm2() { return norm2_; }

  void collect_parameters(const std::string& prefix, ParamList& out) const;
  void collect_trainable(const std::string& prefix, ParamList& out) const;
  TransformerBlock clone() const;

 private:
  RMSNorm norm1_, norm2_;
  CausalSelfAttention attn_;
  SwiGluMlp mlp_;
  float eps_ = 1e-5F;
};

}  // namespace sdd::nn
