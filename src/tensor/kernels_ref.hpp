// Naive reference implementations of the compute kernels.
//
// These are the pre-optimization scalar loops, retained verbatim so the
// blocked/vectorized kernels in kernels.cpp can be equivalence-tested against
// a known-good baseline (tests/test_kernels.cpp) and so bench regressions can
// be cross-checked. They are compiled without -ffast-math and must never be
// called from hot paths.
#pragma once

#include <cstdint>

namespace sdd::kernels::ref {

// C[m,n] (+)= A[m,k] @ B[k,n]
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate);

// C[m,n] (+)= A[m,k] @ B[n,k]^T
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate);

// C[m,n] (+)= A[k,m]^T @ B[k,n]
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate);

void softmax_rows(float* x, std::int64_t rows, std::int64_t cols);

void rmsnorm_forward(const float* x, const float* weight, float* out,
                     std::int64_t rows, std::int64_t cols, float eps, float* inv_rms);

// One attention head over n cached positions `ld` floats apart: scores,
// softmax and value mix as three plain loops (std::exp).
void attend(const float* q, const float* keys, const float* values, std::int64_t ld,
            std::int64_t n, std::int64_t head_dim, float scale, float* out);

// out[i] = silu(gate[i]) * up[i] with std::exp.
void silu_mul(const float* gate, const float* up, float* out, std::int64_t n);

// Per-call pow/cos/sin rotary embedding (no table cache).
void rope_apply(float* vec, std::int64_t n_heads, std::int64_t head_dim,
                std::int64_t pos, float base, float sign);

}  // namespace sdd::kernels::ref
