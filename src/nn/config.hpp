// Transformer hyper-parameter configuration.
#pragma once

#include <cstdint>
#include <string>

#include "util/config.hpp"

namespace sdd::nn {

#define SDD_MODEL_FIELDS(X)                                                   \
  X(std::int64_t, vocab_size, 0, kKey, "token vocabulary size")             \
  X(std::int64_t, d_model, 64, kKey, "residual stream width")               \
  X(std::int64_t, n_heads, 4, kKey, "attention heads")                      \
  X(std::int64_t, n_layers, 16, kKey, "decoder blocks")                     \
  X(std::int64_t, d_ff, 128, kKey, "SwiGLU hidden width")                   \
  X(std::int64_t, max_seq_len, 96, kKey, "context window in tokens")        \
  X(float, rope_base, 10000.0F, kKey, "RoPE frequency base")                \
  X(float, rmsnorm_eps, 1e-5F, kKey, "RMSNorm epsilon")

struct ModelConfig {
  SDD_CONFIG_FIELDS(SDD_MODEL_FIELDS)

  std::int64_t head_dim() const { return d_model / n_heads; }

  bool operator==(const ModelConfig&) const = default;

  // Feeds weight_hash(): the rows' order and types must not change.
  std::uint64_t hash() const { return config::hash(*this); }

  std::string to_string() const {
    return "ModelConfig{vocab=" + std::to_string(vocab_size) +
           ", d=" + std::to_string(d_model) + ", heads=" + std::to_string(n_heads) +
           ", layers=" + std::to_string(n_layers) + ", ff=" + std::to_string(d_ff) +
           ", ctx=" + std::to_string(max_seq_len) + "}";
  }
};

}  // namespace sdd::nn
