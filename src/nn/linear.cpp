#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace sdd::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng) {
  const float stddev = 1.0F / std::sqrt(static_cast<float>(in_features));
  weight_ = Tensor::randn(rng, Shape{out_features, in_features}, stddev,
                          /*requires_grad=*/true);
}

Tensor Linear::forward(const Tensor& x) const {
  Tensor y = ops::linear(x, weight_);
  if (lora_) {
    const Tensor low_rank = ops::linear(x, lora_->a);        // [..., r]
    const Tensor delta = ops::linear(low_rank, lora_->b);    // [..., out]
    y = ops::add_scaled(y, delta, lora_->scale);
  }
  return y;
}

void Linear::apply(const float* x, float* y, std::int64_t rows) const {
  const std::int64_t in = in_features();
  const std::int64_t out = out_features();
  kernels::gemm_nt_rowwise(x, weight_.data().data(), y, rows, in, out,
                           /*accumulate=*/false);
  if (lora_) {
    const std::int64_t rank = lora_->a.dim(0);
    std::vector<float> low_rank(static_cast<std::size_t>(rows * rank));
    kernels::gemm_nt_rowwise(x, lora_->a.data().data(), low_rank.data(), rows, in,
                             rank, /*accumulate=*/false);
    std::vector<float> delta(static_cast<std::size_t>(rows * out));
    kernels::gemm_nt_rowwise(low_rank.data(), lora_->b.data().data(), delta.data(),
                             rows, rank, out, /*accumulate=*/false);
    kernels::axpy(lora_->scale, delta.data(), y, rows * out, /*accumulate=*/true);
  }
}

void Linear::attach_lora(std::int64_t rank, float alpha, Rng& rng) {
  if (lora_) throw std::logic_error("Linear: LoRA adapter already attached");
  const std::int64_t in = in_features();
  const std::int64_t out = out_features();
  LoraAdapter adapter;
  const float stddev = 1.0F / std::sqrt(static_cast<float>(in));
  adapter.a = Tensor::randn(rng, Shape{rank, in}, stddev, /*requires_grad=*/true);
  adapter.b = Tensor::zeros(Shape{out, rank}, /*requires_grad=*/true);
  adapter.scale = alpha / static_cast<float>(rank);
  lora_ = std::move(adapter);
  weight_.raw()->requires_grad = false;  // freeze the base weight
}

void Linear::merge_lora() {
  if (!lora_) return;
  const std::int64_t in = in_features();
  const std::int64_t out = out_features();
  const std::int64_t rank = lora_->a.dim(0);
  // W += scale * B[out,r] @ A[r,in]
  std::vector<float> delta(static_cast<std::size_t>(out * in));
  kernels::gemm_nn(lora_->b.data().data(), lora_->a.data().data(), delta.data(), out,
                   rank, in, /*accumulate=*/false);
  float* w = weight_.data().data();
  kernels::axpy(lora_->scale, delta.data(), w, out * in, /*accumulate=*/true);
  lora_.reset();
  weight_.raw()->requires_grad = true;
}

void Linear::discard_lora() {
  lora_.reset();
  if (weight_.defined()) weight_.raw()->requires_grad = true;
}

void Linear::collect_parameters(const std::string& prefix, ParamList& out) const {
  out.push_back({prefix + ".weight", weight_});
  if (lora_) {
    out.push_back({prefix + ".lora_a", lora_->a});
    out.push_back({prefix + ".lora_b", lora_->b});
  }
}

void Linear::collect_trainable(const std::string& prefix, ParamList& out) const {
  if (lora_) {
    out.push_back({prefix + ".lora_a", lora_->a});
    out.push_back({prefix + ".lora_b", lora_->b});
  } else if (weight_.requires_grad()) {
    out.push_back({prefix + ".weight", weight_});
  }
}

Linear Linear::clone() const {
  Linear copy;
  copy.weight_ = weight_.clone();
  if (lora_) {
    LoraAdapter adapter;
    adapter.a = lora_->a.clone();
    adapter.b = lora_->b.clone();
    adapter.scale = lora_->scale;
    copy.lora_ = std::move(adapter);
  }
  return copy;
}

}  // namespace sdd::nn
