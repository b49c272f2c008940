// Raw float kernels shared by the autograd ops and the no-grad inference path.
//
// All GEMM variants are row-major and accumulate into C when `accumulate` is
// true (C += ...), otherwise they overwrite C. The GEMMs run through
// register-blocked micro-kernels (explicit AVX-512/AVX2+FMA paths selected at
// compile time, with an auto-vectorized portable fallback) and shard
// 4-row output blocks over the global thread pool when the matrix is large
// enough to amortize dispatch. Every output row is computed with a fixed
// reduction order that does not depend on the thread count, so parallel and
// serial execution produce bit-identical results. See docs/kernels.md.
#pragma once

#include <cstdint>
#include <span>

namespace sdd {
class ThreadPool;
}

namespace sdd::kernels {

// C[m,n] (+)= A[m,k] @ B[k,n]
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate);

// C[m,n] (+)= A[m,k] @ B[n,k]^T   (dot products of rows)
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate);

// C[m,n] (+)= A[k,m]^T @ B[k,n]   (sum of outer products)
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate);

// C[m,n] (+)= A[m,k] @ B[n,k]^T with every element bitwise-identical to
// dot(A row, B row) — the same value a single-row (m = 1) gemm_nt gives, so a
// row's result never depends on how many rows share the call. Each job runs
// `gemv` over one block of B rows for all m input rows, so a weight block
// streams through the cache once for the whole batch. The m >= 4 gemm_nt
// micro-kernel has a different reduction order and cannot give this
// guarantee; span decode and the speculative verify pass depend on it to
// stay bit-identical to single-token decode.
void gemm_nt_rowwise(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate);

// y[i] (+)= alpha * x[i]
void axpy(float alpha, const float* x, float* y, std::int64_t n, bool accumulate);

// In-place numerically stable softmax over each row of x[rows, cols].
// Rows are sharded over the thread pool when the workload is large enough.
void softmax_rows(float* x, std::int64_t rows, std::int64_t cols);

// RMSNorm forward: out[r,:] = x[r,:] / rms(x[r,:]) * weight; returns nothing,
// caller may pass `inv_rms != nullptr` to capture 1/rms per row for backward.
// Rows are sharded over the thread pool when the workload is large enough.
void rmsnorm_forward(const float* x, const float* weight, float* out,
                     std::int64_t rows, std::int64_t cols, float eps,
                     float* inv_rms);

// SiLU(x) = x * sigmoid(x)
float silu(float x) noexcept;
float silu_derivative(float x) noexcept;

// ---- decode-path kernels ----------------------------------------------------
//
// Single-token decode and the batched span / speculative verify path must
// agree bit for bit, so these kernels fix their arithmetic per element:
// reduction orders are spelled out below, and vector tails run the same lane
// code under a mask, so no element's value depends on the vector lane it
// lands in or on how many elements share the call. See docs/kernels.md.

// Sum of a[i] * b[i] in a fixed order: element i is fused-multiply-added into
// lane i % 16 of a 16-lane accumulator (the tail through a masked load), then
// a halving tree folds lane l with lane l+8, l+4, l+2 and l+1.
float dot(const float* a, const float* b, std::int64_t n);

// y[j] (+)= dot(x, w + j * ldw, k) for j in [0, n): one activation row
// against n weight rows `ldw` floats apart. A block kernel loads each
// activation chunk once for 16 weight rows (4 on AVX2) and reduces all of
// them with one transposing tree; every y[j] is bitwise-identical to dot().
void gemv(const float* x, const float* w, std::int64_t ldw, float* y, std::int64_t k,
          std::int64_t n, bool accumulate);

// One attention head for one query over n >= 1 cached positions:
//   out = sum_t softmax_t(scale * dot(q, key_t)) * value_t
// `keys` / `values` point at the head's slice of position 0, and positions
// are `ld` floats apart. `scratch` must hold n floats. Softmax uses a
// vectorized exp (max relative error a few ulp).
void attend(const float* q, const float* keys, const float* values, std::int64_t ld,
            std::int64_t n, std::int64_t head_dim, float scale, float* scratch,
            float* out);

// SwiGLU gate: out[i] = silu(gate[i]) * up[i] through a vectorized exp;
// `out` may alias `gate`.
void silu_mul(const float* gate, const float* up, float* out, std::int64_t n);

// Rotary position embedding applied in-place to a [heads, head_dim] slice for
// a single position `pos`. Pairs (2i, 2i+1) are rotated by pos * base^(-2i/d).
// `sign` = +1 applies the rotation, -1 applies the inverse (for backward).
// Angles come from the process-wide cos/sin table cache (see rope_cache.hpp);
// hot paths should acquire the table once and call RopeTable::apply directly.
void rope_apply(float* vec, std::int64_t n_heads, std::int64_t head_dim,
                std::int64_t pos, float base, float sign);

// ---- parallel dispatch control -------------------------------------------
//
// By default (kAuto) row-sharded kernels consult a row-count *and* a total
// FLOP threshold before using the global thread pool, so skinny matmuls
// (single-token decode steps) never pay dispatch overhead. Tests can pin the
// dispatch decision to prove parallel and serial execution are bit-identical.

enum class DispatchMode {
  kAuto,           // heuristic: parallelize only when large enough
  kForceSerial,    // always run inline on the calling thread
  kForceParallel,  // always shard over the pool (override pool optional)
};

// RAII override of the kernel dispatch policy for the current thread. When
// `pool` is non-null with kForceParallel, that pool is used instead of the
// global one (lets tests exercise multi-worker execution on any host).
class ScopedDispatch {
 public:
  explicit ScopedDispatch(DispatchMode mode, ThreadPool* pool = nullptr);
  ~ScopedDispatch();

  ScopedDispatch(const ScopedDispatch&) = delete;
  ScopedDispatch& operator=(const ScopedDispatch&) = delete;

 private:
  DispatchMode saved_mode_;
  ThreadPool* saved_pool_;
};

}  // namespace sdd::kernels
