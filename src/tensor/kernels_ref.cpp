#include "tensor/kernels_ref.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace sdd::kernels::ref {

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (!accumulate) std::memset(c_row, 0, static_cast<std::size_t>(n) * sizeof(float));
    const float* a_row = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float a_ip = a_row[p];
      const float* b_row = b + p * n;
      for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_ip * b_row[j];
    }
  }
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float value = 0.0F;
      for (std::int64_t p = 0; p < k; ++p) value += a_row[p] * b_row[p];
      c_row[j] = accumulate ? c_row[j] + value : value;
    }
  }
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate) {
  if (!accumulate) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* a_row = a + p * m;
    const float* b_row = b + p * n;
    for (std::int64_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      float* c_row = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_pi * b_row[j];
    }
  }
}

void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    float max_value = row[0];
    for (std::int64_t c = 1; c < cols; ++c) max_value = std::max(max_value, row[c]);
    float sum = 0.0F;
    for (std::int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_value);
      sum += row[c];
    }
    const float inv = 1.0F / sum;
    for (std::int64_t c = 0; c < cols; ++c) row[c] *= inv;
  }
}

void rmsnorm_forward(const float* x, const float* weight, float* out,
                     std::int64_t rows, std::int64_t cols, float eps, float* inv_rms) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x_row = x + r * cols;
    float* out_row = out + r * cols;
    float mean_sq = 0.0F;
    for (std::int64_t c = 0; c < cols; ++c) mean_sq += x_row[c] * x_row[c];
    mean_sq /= static_cast<float>(cols);
    const float scale = 1.0F / std::sqrt(mean_sq + eps);
    if (inv_rms != nullptr) inv_rms[r] = scale;
    for (std::int64_t c = 0; c < cols; ++c) out_row[c] = x_row[c] * scale * weight[c];
  }
}

void attend(const float* q, const float* keys, const float* values, std::int64_t ld,
            std::int64_t n, std::int64_t head_dim, float scale, float* out) {
  std::vector<float> weights(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    float score = 0.0F;
    for (std::int64_t d = 0; d < head_dim; ++d) score += q[d] * keys[t * ld + d];
    weights[static_cast<std::size_t>(t)] = score * scale;
  }
  softmax_rows(weights.data(), 1, n);
  for (std::int64_t d = 0; d < head_dim; ++d) {
    float acc = 0.0F;
    for (std::int64_t t = 0; t < n; ++t) {
      acc += weights[static_cast<std::size_t>(t)] * values[t * ld + d];
    }
    out[d] = acc;
  }
}

void silu_mul(const float* gate, const float* up, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = gate[i] / (1.0F + std::exp(-gate[i])) * up[i];
  }
}

void rope_apply(float* vec, std::int64_t n_heads, std::int64_t head_dim,
                std::int64_t pos, float base, float sign) {
  for (std::int64_t h = 0; h < n_heads; ++h) {
    float* head = vec + h * head_dim;
    for (std::int64_t i = 0; i + 1 < head_dim; i += 2) {
      const float freq =
          std::pow(base, -static_cast<float>(i) / static_cast<float>(head_dim));
      const float angle = sign * static_cast<float>(pos) * freq;
      const float cos_a = std::cos(angle);
      const float sin_a = std::sin(angle);
      const float x0 = head[i];
      const float x1 = head[i + 1];
      head[i] = x0 * cos_a - x1 * sin_a;
      head[i + 1] = x0 * sin_a + x1 * cos_a;
    }
  }
}

}  // namespace sdd::kernels::ref
