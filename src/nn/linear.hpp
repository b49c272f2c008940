// Linear projection with optional LoRA adapter.
//
// The adapter follows Hu et al. (2022): y = W x + (alpha / r) * B (A x) with
// A ~ N(0, sigma) of shape [r, in] and B = 0 of shape [out, r], so attaching
// an adapter leaves the function unchanged at initialization. When an adapter
// is active the base weight is frozen (requires_grad = false) and only A/B
// are trained; merge_lora() folds alpha/r * B A into W and removes the
// adapter, restoring a plain Linear.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "nn/module.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sdd::nn {

class Linear {
 public:
  Linear() = default;
  // Kaiming-style init: N(0, 1/sqrt(in)).
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& x) const;

  // Inference path: y[rows, out] = apply to x[rows, in] (raw buffers, no
  // tape). Each weight row streams once for the whole batch, and every
  // output row is bitwise-identical to apply(x_row, y_row, 1), so span and
  // speculative-verify decode stay bit-identical to single-token decode;
  // see kernels::gemm_nt_rowwise.
  void apply(const float* x, float* y, std::int64_t rows) const;

  std::int64_t in_features() const { return weight_.defined() ? weight_.dim(1) : 0; }
  std::int64_t out_features() const { return weight_.defined() ? weight_.dim(0) : 0; }

  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }

  // --- LoRA ---
  void attach_lora(std::int64_t rank, float alpha, Rng& rng);
  void merge_lora();    // fold adapter into the base weight, then drop it
  void discard_lora();  // drop the adapter without folding (base unfrozen)
  bool has_lora() const { return lora_.has_value(); }
  float lora_scale() const { return lora_ ? lora_->scale : 0.0F; }

  void collect_parameters(const std::string& prefix, ParamList& out) const;
  // Only trainable parameters (skips frozen base weight under LoRA).
  void collect_trainable(const std::string& prefix, ParamList& out) const;

  Linear clone() const;

 private:
  struct LoraAdapter {
    Tensor a;  // [rank, in]
    Tensor b;  // [out, rank]
    float scale = 0.0F;
  };

  Tensor weight_;  // [out, in]
  std::optional<LoraAdapter> lora_;
};

}  // namespace sdd::nn
