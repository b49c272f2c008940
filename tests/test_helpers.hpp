// Shared test utilities: finite-difference gradient checking and tiny model
// factories.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/transformer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace sdd::testing {

// Compare analytic gradients of `x` against central finite differences of the
// scalar produced by `loss_fn` (which must read x's current values each call).
inline void expect_gradients_close(Tensor x, const std::function<Tensor()>& loss_fn,
                                   float eps = 1e-2F, float abs_tol = 3e-2F,
                                   float rel_tol = 6e-2F) {
  x.zero_grad();
  Tensor loss = loss_fn();
  loss.backward();
  const std::vector<float> analytic(x.grad().begin(), x.grad().end());

  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float original = data[i];
    data[i] = original + eps;
    const float loss_plus = loss_fn().item();
    data[i] = original - eps;
    const float loss_minus = loss_fn().item();
    data[i] = original;

    const float numeric = (loss_plus - loss_minus) / (2.0F * eps);
    const float diff = std::fabs(numeric - analytic[i]);
    const float scale = std::max({1.0F, std::fabs(numeric), std::fabs(analytic[i])});
    EXPECT_LE(diff, std::max(abs_tol, rel_tol * scale))
        << "gradient mismatch at flat index " << i << ": analytic=" << analytic[i]
        << " numeric=" << numeric;
  }
}

// One to three seeded byte-level mutations of a corpus entry, for the in-tree
// mutation fuzz tests of binary decoders: bit flips, random bytes,
// truncation, duplicated and deleted ranges, boundary integers written over
// length and count fields, and splices with another entry.
inline std::string mutate_bytes(const std::vector<std::string>& corpus, Rng& rng) {
  std::string bytes = corpus[rng.index(corpus.size())];
  const std::int64_t mutations = rng.uniform_int(1, 3);
  for (std::int64_t m = 0; m < mutations && !bytes.empty(); ++m) {
    const std::size_t at = rng.index(bytes.size());
    switch (rng.uniform_int(0, 6)) {
      case 0:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      case 1:
        bytes[at] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2:
        bytes.resize(at);
        break;
      case 3:
        bytes.insert(at, bytes.substr(at, rng.index(bytes.size() - at) + 1));
        break;
      case 4:
        bytes.erase(at, rng.index(bytes.size() - at) + 1);
        break;
      case 5: {
        const std::uint64_t boundaries[] = {0, 1, 7, 0xFF, 1ULL << 31, 1ULL << 32,
                                            ~0ULL >> 1, ~0ULL};
        const std::uint64_t value = boundaries[rng.index(std::size(boundaries))];
        std::memcpy(bytes.data() + at, &value,
                    std::min(sizeof(value), bytes.size() - at));
        break;
      }
      default: {
        const std::string& other = corpus[rng.index(corpus.size())];
        bytes = bytes.substr(0, at) + other.substr(rng.index(other.size() + 1));
      }
    }
  }
  return bytes;
}

// Tiny config with a synthetic 50-token vocab: for pure-tensor tests that
// never touch the real datasets.
inline nn::ModelConfig tiny_config(std::int64_t layers = 3) {
  nn::ModelConfig config;
  config.vocab_size = 50;
  config.d_model = 16;
  config.n_heads = 2;
  config.n_layers = layers;
  config.d_ff = 24;
  config.max_seq_len = 48;
  return config;
}

// Tiny config sized for the real Vocab: for tests that run real corpora,
// datasets, or eval tasks through a model.
nn::ModelConfig tiny_real_vocab_config(std::int64_t layers = 3);

}  // namespace sdd::testing
#include "data/vocab.hpp"

namespace sdd::testing {
inline nn::ModelConfig tiny_real_vocab_config(std::int64_t layers) {
  nn::ModelConfig config = tiny_config(layers);
  config.vocab_size = data::Vocab::instance().size();
  config.max_seq_len = 160;
  return config;
}
}  // namespace sdd::testing
