// Post-training weight quantization (the paper's conclusion proposes
// combining self-data distillation with quantization).
//
// Implements symmetric per-row integer quantization of the 2-D projection
// weights (attention + MLP + embedding) in the standard simulated-
// quantization form: weights are rounded to the b-bit grid and dequantized
// in place, so the resulting model measures exactly the quality a real
// integer kernel would see while keeping the fp32 execution path. Norm gains
// are left in fp32 (as all practical schemes do).
#pragma once

#include <cstdint>

#include "nn/transformer.hpp"

namespace sdd::core {

struct QuantConfig {
  int bits = 8;             // 2..8 supported
  bool per_row = true;      // per-output-channel scales (vs per-tensor)
  bool quantize_embedding = true;
};

struct QuantStats {
  std::int64_t tensors_quantized = 0;
  std::int64_t values_quantized = 0;
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
};

// Quantize-dequantize all projection weights of a copy of `model`.
nn::TransformerLM quantize_model(const nn::TransformerLM& model,
                                 const QuantConfig& config,
                                 QuantStats* stats = nullptr);

// Round-trip a single flat buffer (exposed for tests): returns the
// dequantized values for a symmetric b-bit grid with one scale per
// `row_size` chunk (row_size == n for per-tensor).
void quantize_dequantize(std::span<float> values, std::int64_t row_size, int bits,
                         QuantStats* stats);

}  // namespace sdd::core
