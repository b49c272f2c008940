#include "tensor/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

#include "tensor/rope_cache.hpp"
#include "util/threadpool.hpp"

namespace sdd::kernels {
namespace {

// ---- dispatch policy ------------------------------------------------------

// Sharding GEMM rows only pays off when both the row count (enough blocks to
// hand out) and the total arithmetic (enough work to amortize the fork/join)
// are large. Skinny matmuls (e.g. d_model=64 single-token decode steps) stay
// inline regardless of row count.
constexpr std::int64_t kParallelRowThreshold = 64;
constexpr std::int64_t kParallelFlopThreshold = std::int64_t{1} << 21;  // 2 MFLOP

// Row-sharded elementwise kernels (softmax, rmsnorm) have no k dimension;
// gate them on total element count instead.
constexpr std::int64_t kParallelElemThreshold = std::int64_t{1} << 16;

thread_local DispatchMode t_dispatch_mode = DispatchMode::kAuto;
thread_local ThreadPool* t_dispatch_pool = nullptr;

bool should_parallelize(std::int64_t rows, std::int64_t flops) {
  switch (t_dispatch_mode) {
    case DispatchMode::kForceSerial:
      return false;
    case DispatchMode::kForceParallel:
      return true;
    case DispatchMode::kAuto:
      break;
  }
  return rows >= kParallelRowThreshold && flops >= kParallelFlopThreshold &&
         ThreadPool::global().worker_count() > 0;
}

bool should_parallelize_rows(std::int64_t rows, std::int64_t elems) {
  switch (t_dispatch_mode) {
    case DispatchMode::kForceSerial:
      return false;
    case DispatchMode::kForceParallel:
      return true;
    case DispatchMode::kAuto:
      break;
  }
  return rows >= kParallelRowThreshold && elems >= kParallelElemThreshold &&
         ThreadPool::global().worker_count() > 0;
}

// Run job(i) for i in [0, jobs), sharded over the pool when `parallel`.
// Jobs own disjoint output rows, so there are no write races and the result
// is independent of how the range is chunked.
template <typename Job>
void run_jobs(std::int64_t jobs, bool parallel, const Job& job) {
  if (parallel) {
    ThreadPool& pool =
        t_dispatch_pool != nullptr ? *t_dispatch_pool : ThreadPool::global();
    pool.parallel_for(0, static_cast<std::size_t>(jobs), job);
  } else {
    for (std::int64_t i = 0; i < jobs; ++i) job(static_cast<std::size_t>(i));
  }
}

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
// Halving tree over 8 lanes: lane l + lane l+4, then l+2, then l+1.
inline float fold8(__m256 v) {
  const __m128 h = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  const __m128 q = _mm_add_ps(h, _mm_movehl_ps(h, h));
  return _mm_cvtss_f32(_mm_add_ss(q, _mm_shuffle_ps(q, q, 1)));
}
#endif

// ---- micro-kernel geometry ------------------------------------------------
//
// Output rows are processed in blocks of kMicroRows; within a block, the
// NN/TN micro-kernel walks k once while holding a kMicroRows x kMicroCols
// accumulator tile entirely in vector registers (C is touched once per
// k-tile). k itself is split into kKTile chunks so the streamed B panel
// stays cache-resident for large k.
constexpr std::int64_t kMicroRows = 4;
constexpr std::int64_t kKTile = 512;

#if defined(__AVX512F__)
constexpr std::int64_t kMicroCols = 32;  // 2 zmm per row
#else
constexpr std::int64_t kMicroCols = 16;  // 2 ymm per row (also the portable tile)
#endif

// A-element accessor shared by the NN (A row-major [m,k]) and TN (A row-major
// [k,m], read transposed) micro-kernels.
template <bool TransA>
inline float a_at(const float* a, std::int64_t lda, std::int64_t i, std::int64_t p) {
  return TransA ? a[p * lda + i] : a[i * lda + p];
}

// Generic edge kernel: C[rows, cols] (+)= A-chunk @ B-chunk for any tile
// shape (row/column tails). Auto-vectorizes over j.
template <bool TransA>
void patch_nn(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
              float* c, std::int64_t ldc, std::int64_t rows, std::int64_t cols,
              std::int64_t k, bool accumulate) {
  for (std::int64_t i = 0; i < rows; ++i) {
    float* c_row = c + i * ldc;
    if (!accumulate) {
      std::memset(c_row, 0, static_cast<std::size_t>(cols) * sizeof(float));
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a_at<TransA>(a, lda, i, p);
      const float* b_row = b + p * ldb;
      for (std::int64_t j = 0; j < cols; ++j) c_row[j] += av * b_row[j];
    }
  }
}

#if defined(__AVX512F__)

// 4 x 32 FMA tile: 8 zmm accumulators, 2 B loads + 4 broadcasts per k step.
template <bool TransA>
void micro_nn(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
              float* c, std::int64_t ldc, std::int64_t k, bool accumulate) {
  __m512 acc[kMicroRows][2];
  if (accumulate) {
    for (int i = 0; i < kMicroRows; ++i) {
      acc[i][0] = _mm512_loadu_ps(c + i * ldc);
      acc[i][1] = _mm512_loadu_ps(c + i * ldc + 16);
    }
  } else {
    for (int i = 0; i < kMicroRows; ++i) {
      acc[i][0] = _mm512_setzero_ps();
      acc[i][1] = _mm512_setzero_ps();
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const __m512 b0 = _mm512_loadu_ps(b + p * ldb);
    const __m512 b1 = _mm512_loadu_ps(b + p * ldb + 16);
    for (int i = 0; i < kMicroRows; ++i) {
      const __m512 av = _mm512_set1_ps(a_at<TransA>(a, lda, i, p));
      acc[i][0] = _mm512_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  for (int i = 0; i < kMicroRows; ++i) {
    _mm512_storeu_ps(c + i * ldc, acc[i][0]);
    _mm512_storeu_ps(c + i * ldc + 16, acc[i][1]);
  }
}

// Fold the row's four zmm dot accumulators into one xmm holding the four
// sums, via pairwise 256/128-bit folds and a transposing hadd tree (much
// cheaper than four independent _mm512_reduce_add_ps).
inline __m128 fold4_dots(__m512 d0, __m512 d1, __m512 d2, __m512 d3) {
  const auto fold = [](__m512 v) {
    const __m256 half = _mm256_add_ps(_mm512_castps512_ps256(v),
                                      _mm512_extractf32x8_ps(v, 1));
    return _mm_add_ps(_mm256_castps256_ps128(half), _mm256_extractf128_ps(half, 1));
  };
  const __m128 s01 = _mm_hadd_ps(fold(d0), fold(d1));
  const __m128 s23 = _mm_hadd_ps(fold(d2), fold(d3));
  return _mm_hadd_ps(s01, s23);
}

// 4 x 4 dot tile vectorized over k: 16 zmm accumulators, one transposing
// reduction per output row. Scalar tail keeps the k reduction order fixed.
void micro_nt(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
              float* c, std::int64_t ldc, std::int64_t k, bool accumulate) {
  __m512 acc[4][4];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) acc[i][j] = _mm512_setzero_ps();
  }
  std::int64_t p = 0;
  for (; p + 16 <= k; p += 16) {
    __m512 av[4];
    for (int i = 0; i < 4; ++i) av[i] = _mm512_loadu_ps(a + i * lda + p);
    for (int j = 0; j < 4; ++j) {
      const __m512 bv = _mm512_loadu_ps(b + j * ldb + p);
      for (int i = 0; i < 4; ++i) acc[i][j] = _mm512_fmadd_ps(av[i], bv, acc[i][j]);
    }
  }
  for (int i = 0; i < 4; ++i) {
    __m128 sums = fold4_dots(acc[i][0], acc[i][1], acc[i][2], acc[i][3]);
    if (p < k) {
      alignas(16) float tail[4] = {};
      for (int j = 0; j < 4; ++j) {
        for (std::int64_t pp = p; pp < k; ++pp) {
          tail[j] += a[i * lda + pp] * b[j * ldb + pp];
        }
      }
      sums = _mm_add_ps(sums, _mm_load_ps(tail));
    }
    float* out = c + i * ldc;
    if (accumulate) sums = _mm_add_ps(sums, _mm_loadu_ps(out));
    _mm_storeu_ps(out, sums);
  }
}
constexpr bool kHasNtMicro = true;

#elif defined(__AVX2__) && defined(__FMA__)

// 4 x 16 FMA tile: 8 ymm accumulators, 2 B loads + 4 broadcasts per k step.
template <bool TransA>
void micro_nn(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
              float* c, std::int64_t ldc, std::int64_t k, bool accumulate) {
  __m256 acc[kMicroRows][2];
  if (accumulate) {
    for (int i = 0; i < kMicroRows; ++i) {
      acc[i][0] = _mm256_loadu_ps(c + i * ldc);
      acc[i][1] = _mm256_loadu_ps(c + i * ldc + 8);
    }
  } else {
    for (int i = 0; i < kMicroRows; ++i) {
      acc[i][0] = _mm256_setzero_ps();
      acc[i][1] = _mm256_setzero_ps();
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + p * ldb + 8);
    for (int i = 0; i < kMicroRows; ++i) {
      const __m256 av = _mm256_set1_ps(a_at<TransA>(a, lda, i, p));
      acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
    }
  }
  for (int i = 0; i < kMicroRows; ++i) {
    _mm256_storeu_ps(c + i * ldc, acc[i][0]);
    _mm256_storeu_ps(c + i * ldc + 8, acc[i][1]);
  }
}

// 4 x 2 dot tile vectorized over k (8 ymm accumulators + 4 A + 1 B loads
// stays inside the 16-register ymm file).
void micro_nt(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
              float* c, std::int64_t ldc, std::int64_t k, bool accumulate) {
  for (int jb = 0; jb < 4; jb += 2) {
    __m256 acc[4][2];
    for (int i = 0; i < 4; ++i) {
      acc[i][0] = _mm256_setzero_ps();
      acc[i][1] = _mm256_setzero_ps();
    }
    std::int64_t p = 0;
    for (; p + 8 <= k; p += 8) {
      __m256 av[4];
      for (int i = 0; i < 4; ++i) av[i] = _mm256_loadu_ps(a + i * lda + p);
      for (int j = 0; j < 2; ++j) {
        const __m256 bv = _mm256_loadu_ps(b + (jb + j) * ldb + p);
        for (int i = 0; i < 4; ++i) acc[i][j] = _mm256_fmadd_ps(av[i], bv, acc[i][j]);
      }
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 2; ++j) {
        float s = fold8(acc[i][j]);
        for (std::int64_t pp = p; pp < k; ++pp) {
          s += a[i * lda + pp] * b[(jb + j) * ldb + pp];
        }
        float* out = c + i * ldc + jb + j;
        *out = accumulate ? *out + s : s;
      }
    }
  }
}
constexpr bool kHasNtMicro = true;

#else

// Portable register-tiled micro-kernel; the fixed-size accumulator array is
// scalar-replaced and auto-vectorized by the compiler at -O3.
template <bool TransA>
void micro_nn(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
              float* c, std::int64_t ldc, std::int64_t k, bool accumulate) {
  float acc[kMicroRows][kMicroCols];
  if (accumulate) {
    for (int i = 0; i < kMicroRows; ++i) {
      for (int j = 0; j < kMicroCols; ++j) acc[i][j] = c[i * ldc + j];
    }
  } else {
    for (int i = 0; i < kMicroRows; ++i) {
      for (int j = 0; j < kMicroCols; ++j) acc[i][j] = 0.0F;
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* b_row = b + p * ldb;
    float av[kMicroRows];
    for (int i = 0; i < kMicroRows; ++i) av[i] = a_at<TransA>(a, lda, i, p);
    for (int j = 0; j < kMicroCols; ++j) {
      const float bv = b_row[j];
      for (int i = 0; i < kMicroRows; ++i) acc[i][j] += av[i] * bv;
    }
  }
  for (int i = 0; i < kMicroRows; ++i) {
    for (int j = 0; j < kMicroCols; ++j) c[i * ldc + j] = acc[i][j];
  }
}

// No SIMD ISA detected at compile time: gemm_nt keeps the gemv path.
void micro_nt(const float*, std::int64_t, const float*, std::int64_t, float*,
              std::int64_t, std::int64_t, bool) {}
constexpr bool kHasNtMicro = false;

#endif

// ---- decode-path kernels ----------------------------------------------------
//
// Per ISA: dot_lanes (the dot() body), exp_sum (softmax numerators and their
// sum), mix_rows (the attention value mix), silu_mul_lanes, and the gemv and
// gemm_nt_rowwise bodies: on AVX-512 the register tiles dot_tiles (behind
// gemv and rowwise_block), elsewhere gemv_block (kGemvCols outputs of gemv).
// dot, gemv and gemm_nt_rowwise follow the 16-lane order documented in
// kernels.hpp on every tier; on the SIMD tiers the elementwise kernels run
// their tails through the same lane code under a mask.

// Cephes-style exp constants: x = n ln2 + r with ln2 split in two for an
// exact-enough r, a degree-6 polynomial in r, and 2^n built in the exponent
// bits. Inputs are clamped to [kExpLo, kExpHi] so 2^n stays a normal float
// (and no tier overflows to inf, which -ffast-math may not honor).
constexpr float kExpLo = -87.33654F;
constexpr float kExpHi = 88.0F;

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))

constexpr float kLog2e = 1.44269504088896341F;
constexpr float kLn2Hi = 0.693359375F;
constexpr float kLn2Lo = -2.12194440e-4F;
constexpr float kExpPoly[6] = {1.9875691500e-4F, 1.3981999507e-3F, 8.3334519073e-3F,
                               4.1665795894e-2F, 1.6666665459e-1F, 5.0000001201e-1F};

#endif

#if defined(__AVX512F__)

// Weight rows per gemm_nt_rowwise job: one 16-wide column block of tiles.
constexpr std::int64_t kGemvCols = 16;

inline __mmask16 lane_mask(std::int64_t count) {  // first min(count, 16) lanes
  return static_cast<__mmask16>((1U << std::min<std::int64_t>(count, 16)) - 1U);
}

inline float fold16(__m512 v) {
  return fold8(_mm256_add_ps(_mm512_castps512_ps256(v), _mm512_extractf32x8_ps(v, 1)));
}

// The clamps take the constant first so a NaN input stays NaN.
inline __m512 exp16(__m512 x) {
  x = _mm512_max_ps(_mm512_set1_ps(kExpLo), x);
  x = _mm512_min_ps(_mm512_set1_ps(kExpHi), x);
  const __m512 n = _mm512_roundscale_ps(_mm512_mul_ps(x, _mm512_set1_ps(kLog2e)),
                                        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kLn2Hi), x);
  r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kLn2Lo), r);
  __m512 p = _mm512_set1_ps(kExpPoly[0]);
  for (int i = 1; i < 6; ++i) p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpPoly[i]));
  p = _mm512_fmadd_ps(p, _mm512_mul_ps(r, r), _mm512_add_ps(r, _mm512_set1_ps(1.0F)));
  const __m512i scale = _mm512_slli_epi32(
      _mm512_add_epi32(_mm512_cvtps_epi32(n), _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(p, _mm512_castsi512_ps(scale));
}

inline float dot_lanes(const float* a, const float* b, std::int64_t n) {
  __m512 acc = _mm512_setzero_ps();
  std::int64_t p = 0;
  for (; p + 16 <= n; p += 16) {
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(a + p), _mm512_loadu_ps(b + p), acc);
  }
  if (p < n) {
    const __mmask16 m = lane_mask(n - p);
    acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + p),
                          _mm512_maskz_loadu_ps(m, b + p), acc);
  }
  return fold16(acc);
}

// Runs the dot() halving tree on 16 accumulators at once. Each level adds
// lane l to lane l + width/2 of every accumulator, packing two (then four,
// eight, sixteen) accumulators per register; the result holds output j at
// lane 4 * (j % 4) + j / 4 and is permuted back into order.
inline __m512 transpose_fold16(const __m512 (&acc)[16]) {
  __m512 h8[8];
  for (int i = 0; i < 8; ++i) {
    const __m512 a = acc[2 * i];
    const __m512 b = acc[2 * i + 1];
    h8[i] = _mm512_add_ps(_mm512_shuffle_f32x4(a, b, _MM_SHUFFLE(1, 0, 1, 0)),
                          _mm512_shuffle_f32x4(a, b, _MM_SHUFFLE(3, 2, 3, 2)));
  }
  __m512 h4[4];
  for (int i = 0; i < 4; ++i) {
    const __m512 a = h8[2 * i];
    const __m512 b = h8[2 * i + 1];
    h4[i] = _mm512_add_ps(_mm512_shuffle_f32x4(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
                          _mm512_shuffle_f32x4(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
  }
  __m512 h2[2];
  for (int i = 0; i < 2; ++i) {
    const __m512 a = h4[2 * i];
    const __m512 b = h4[2 * i + 1];
    h2[i] = _mm512_add_ps(_mm512_shuffle_ps(a, b, _MM_SHUFFLE(1, 0, 1, 0)),
                          _mm512_shuffle_ps(a, b, _MM_SHUFFLE(3, 2, 3, 2)));
  }
  const __m512 h1 =
      _mm512_add_ps(_mm512_shuffle_ps(h2[0], h2[1], _MM_SHUFFLE(2, 0, 2, 0)),
                    _mm512_shuffle_ps(h2[0], h2[1], _MM_SHUFFLE(3, 1, 3, 1)));
  const __m512i order =
      _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  return _mm512_permutexvar_ps(order, h1);
}

// Register tiles of dot() outputs for rows <= Rows activation rows (`ldx`
// floats apart) against cols <= 16 weight rows (`ldw` floats apart):
//   y[r * ldy + j] (+)= dot(x + r * ldx, w + j * ldw, k)
// Each tile is Rows x (16 / Rows) outputs. It loads every 16-float weight
// chunk once, FMAs it into the accumulators of all its rows, and reduces the
// 16 accumulators with one transpose_fold16 (output r * (16 / Rows) + j of
// the tile lands in lane r * (16 / Rows) + j). A partial tile repeats its
// last real row and column, so it reads only valid memory, and stores only
// its real outputs. Each Rows is one compiled copy whose tile loop is never
// unrolled (noinline and noclone, like dot()), so every output of a tile
// kind runs the same instructions (docs/kernels.md, Determinism).
template <int Rows>
[[gnu::noinline, gnu::noclone]] void dot_tiles(const float* x, std::int64_t ldx,
                                               const float* w, std::int64_t ldw, float* y,
                                               std::int64_t ldy, std::int64_t k,
                                               std::int64_t rows, std::int64_t cols,
                                               bool accumulate) {
  constexpr int kCols = 16 / Rows;
  const float* xr[Rows];
  for (int r = 0; r < Rows; ++r) xr[r] = x + std::min<std::int64_t>(r, rows - 1) * ldx;
#pragma GCC unroll 1
  for (std::int64_t j0 = 0; j0 < cols; j0 += kCols) {
    const std::int64_t tile_cols = std::min<std::int64_t>(kCols, cols - j0);
    const float* wr[kCols];
    for (int j = 0; j < kCols; ++j) {
      wr[j] = w + (j0 + std::min<std::int64_t>(j, tile_cols - 1)) * ldw;
    }
    __m512 acc[16];
    for (__m512& v : acc) v = _mm512_setzero_ps();
    const auto fma_chunk = [&](auto load) {
      __m512 xv[Rows];
      for (int r = 0; r < Rows; ++r) xv[r] = load(xr[r]);
      for (int j = 0; j < kCols; ++j) {
        const __m512 wv = load(wr[j]);
        for (int r = 0; r < Rows; ++r) {
          acc[r * kCols + j] = _mm512_fmadd_ps(xv[r], wv, acc[r * kCols + j]);
        }
      }
    };
    std::int64_t p = 0;
    for (; p + 16 <= k; p += 16) {
      fma_chunk([p](const float* row) { return _mm512_loadu_ps(row + p); });
    }
    if (p < k) {
      const __mmask16 m = lane_mask(k - p);
      fma_chunk([p, m](const float* row) { return _mm512_maskz_loadu_ps(m, row + p); });
    }
    const __m512 sums = transpose_fold16(acc);
    const __mmask16 keep = lane_mask(tile_cols);
    for (std::int64_t r = 0; r < rows; ++r) {
      __m512 out = _mm512_maskz_compress_ps(static_cast<__mmask16>(keep << (r * kCols)),
                                            sums);
      float* yr = y + r * ldy + j0;
      if (accumulate) out = _mm512_add_ps(_mm512_maskz_loadu_ps(keep, yr), out);
      _mm512_mask_storeu_ps(yr, keep, out);
    }
  }
}

// All m input rows against B rows [j0, j0 + cols). The tile shape is a fixed
// rule on the rows left: 4 x 4 tiles (8 loads per 16 FMAs) while at least 3
// rows are left, the last of them partial when 3 are; a last pair runs 2 x 8
// tiles and a last single row the 1 x 16 tile of gemv.
void rowwise_block(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n, std::int64_t j0, std::int64_t cols,
                   bool accumulate) {
  const float* w = b + j0 * k;
  std::int64_t i = 0;
  while (m - i >= 3) {
    const std::int64_t rows = std::min<std::int64_t>(4, m - i);
    dot_tiles<4>(a + i * k, k, w, k, c + i * n + j0, n, k, rows, cols, accumulate);
    i += rows;
  }
  if (m - i == 2) {
    dot_tiles<2>(a + i * k, k, w, k, c + i * n + j0, n, k, 2, cols, accumulate);
  } else if (m - i == 1) {
    dot_tiles<1>(a + i * k, k, w, k, c + i * n + j0, n, k, 1, cols, accumulate);
  }
}

float exp_sum(float* v, std::int64_t n, float shift) {
  const __m512 sub = _mm512_set1_ps(shift);
  __m512 acc = _mm512_setzero_ps();
  for (std::int64_t i = 0; i < n; i += 16) {
    const __mmask16 m = lane_mask(n - i);
    const __m512 shifted = _mm512_sub_ps(_mm512_maskz_loadu_ps(m, v + i), sub);
    const __m512 e = _mm512_maskz_mov_ps(m, exp16(shifted));
    _mm512_mask_storeu_ps(v + i, m, e);
    acc = _mm512_add_ps(acc, e);
  }
  return fold16(acc);
}

// out[d] = scale * sum_t weight[t] * rows[t * ld + d]; positions rotate over
// four accumulators per 16-lane column chunk.
void mix_rows(const float* weight, const float* rows, std::int64_t ld, std::int64_t n,
              std::int64_t width, float scale, float* out) {
  for (std::int64_t d = 0; d < width; d += 16) {
    const __mmask16 m = lane_mask(width - d);
    const float* col = rows + d;
    __m512 acc[4] = {_mm512_setzero_ps(), _mm512_setzero_ps(), _mm512_setzero_ps(),
                     _mm512_setzero_ps()};
    std::int64_t t = 0;
    for (; t + 4 <= n; t += 4) {
      for (int u = 0; u < 4; ++u) {
        acc[u] = _mm512_fmadd_ps(_mm512_set1_ps(weight[t + u]),
                                 _mm512_maskz_loadu_ps(m, col + (t + u) * ld), acc[u]);
      }
    }
    for (; t < n; ++t) {
      acc[0] = _mm512_fmadd_ps(_mm512_set1_ps(weight[t]),
                               _mm512_maskz_loadu_ps(m, col + t * ld), acc[0]);
    }
    const __m512 sum =
        _mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), _mm512_add_ps(acc[2], acc[3]));
    _mm512_mask_storeu_ps(out + d, m, _mm512_mul_ps(sum, _mm512_set1_ps(scale)));
  }
}

void silu_mul_lanes(const float* gate, const float* up, float* out, std::int64_t n) {
  const __m512 one = _mm512_set1_ps(1.0F);
  for (std::int64_t i = 0; i < n; i += 16) {
    const __mmask16 m = lane_mask(n - i);
    const __m512 g = _mm512_maskz_loadu_ps(m, gate + i);
    const __m512 e = exp16(_mm512_sub_ps(_mm512_setzero_ps(), g));
    const __m512 sig = _mm512_div_ps(one, _mm512_add_ps(one, e));
    const __m512 u = _mm512_maskz_loadu_ps(m, up + i);
    _mm512_mask_storeu_ps(out + i, m, _mm512_mul_ps(_mm512_mul_ps(g, sig), u));
  }
}

#elif defined(__AVX2__) && defined(__FMA__)

// Four outputs per block: 4 x 2 ymm accumulators plus the activation pair
// fit the 16-register ymm file.
constexpr std::int64_t kGemvCols = 4;

alignas(32) constexpr std::int32_t kLaneMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                         0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i lane_mask(std::int64_t count) {  // first clamp(count, 0, 8) lanes
  const std::int64_t lanes = std::clamp<std::int64_t>(count, 0, 8);
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLaneMaskTable + 8 - lanes));
}

inline __m256 exp8(__m256 x) {
  x = _mm256_max_ps(_mm256_set1_ps(kExpLo), x);
  x = _mm256_min_ps(_mm256_set1_ps(kExpHi), x);
  const __m256 n = _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                                   _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Hi), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpPoly[0]);
  for (int i = 1; i < 6; ++i) p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpPoly[i]));
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), _mm256_add_ps(r, _mm256_set1_ps(1.0F)));
  const __m256i scale = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(scale));
}

// 16 lanes as a (lo, hi) ymm pair, so the order matches the AVX-512 tier.
inline float dot_lanes(const float* a, const float* b, std::int64_t n) {
  __m256 lo = _mm256_setzero_ps();
  __m256 hi = _mm256_setzero_ps();
  std::int64_t p = 0;
  for (; p + 16 <= n; p += 16) {
    lo = _mm256_fmadd_ps(_mm256_loadu_ps(a + p), _mm256_loadu_ps(b + p), lo);
    hi = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 8), _mm256_loadu_ps(b + p + 8), hi);
  }
  if (p < n) {
    const __m256i ml = lane_mask(n - p);
    const __m256i mh = lane_mask(n - p - 8);
    lo = _mm256_fmadd_ps(_mm256_maskload_ps(a + p, ml), _mm256_maskload_ps(b + p, ml),
                         lo);
    hi = _mm256_fmadd_ps(_mm256_maskload_ps(a + p + 8, mh),
                         _mm256_maskload_ps(b + p + 8, mh), hi);
  }
  return fold8(_mm256_add_ps(lo, hi));
}

[[gnu::noinline]] void gemv_block(const float* x, const float* w, std::int64_t ldw,
                                  float* y, std::int64_t k, bool accumulate) {
  __m256 lo[4];
  __m256 hi[4];
  for (int j = 0; j < 4; ++j) lo[j] = hi[j] = _mm256_setzero_ps();
  std::int64_t p = 0;
  for (; p + 16 <= k; p += 16) {
    const __m256 x0 = _mm256_loadu_ps(x + p);
    const __m256 x1 = _mm256_loadu_ps(x + p + 8);
    for (int j = 0; j < 4; ++j) {
      lo[j] = _mm256_fmadd_ps(x0, _mm256_loadu_ps(w + j * ldw + p), lo[j]);
      hi[j] = _mm256_fmadd_ps(x1, _mm256_loadu_ps(w + j * ldw + p + 8), hi[j]);
    }
  }
  if (p < k) {
    const __m256i ml = lane_mask(k - p);
    const __m256i mh = lane_mask(k - p - 8);
    const __m256 x0 = _mm256_maskload_ps(x + p, ml);
    const __m256 x1 = _mm256_maskload_ps(x + p + 8, mh);
    for (int j = 0; j < 4; ++j) {
      lo[j] = _mm256_fmadd_ps(x0, _mm256_maskload_ps(w + j * ldw + p, ml), lo[j]);
      hi[j] = _mm256_fmadd_ps(x1, _mm256_maskload_ps(w + j * ldw + p + 8, mh), hi[j]);
    }
  }
  // The dot() tree for four outputs at once: 16 -> 8 per output, then pack
  // two outputs per register for 8 -> 4, and fold the rest pairwise.
  __m256 h8[4];
  for (int j = 0; j < 4; ++j) h8[j] = _mm256_add_ps(lo[j], hi[j]);
  const __m256 h4a = _mm256_add_ps(_mm256_permute2f128_ps(h8[0], h8[1], 0x20),
                                   _mm256_permute2f128_ps(h8[0], h8[1], 0x31));
  const __m256 h4b = _mm256_add_ps(_mm256_permute2f128_ps(h8[2], h8[3], 0x20),
                                   _mm256_permute2f128_ps(h8[2], h8[3], 0x31));
  const __m256 h2 = _mm256_add_ps(_mm256_shuffle_ps(h4a, h4b, _MM_SHUFFLE(1, 0, 1, 0)),
                                  _mm256_shuffle_ps(h4a, h4b, _MM_SHUFFLE(3, 2, 3, 2)));
  // Lanes (0, 1 | 4, 5) of h1 hold outputs (0, 2 | 1, 3).
  const __m256 h1 = _mm256_hadd_ps(h2, h2);
  __m128 sums = _mm_unpacklo_ps(_mm256_castps256_ps128(h1), _mm256_extractf128_ps(h1, 1));
  if (accumulate) sums = _mm_add_ps(_mm_loadu_ps(y), sums);
  _mm_storeu_ps(y, sums);
}

float exp_sum(float* v, std::int64_t n, float shift) {
  const __m256 sub = _mm256_set1_ps(shift);
  __m256 acc = _mm256_setzero_ps();
  for (std::int64_t i = 0; i < n; i += 8) {
    const __m256i m = lane_mask(n - i);
    const __m256 e = _mm256_and_ps(
        exp8(_mm256_sub_ps(_mm256_maskload_ps(v + i, m), sub)), _mm256_castsi256_ps(m));
    _mm256_maskstore_ps(v + i, m, e);
    acc = _mm256_add_ps(acc, e);
  }
  return fold8(acc);
}

void mix_rows(const float* weight, const float* rows, std::int64_t ld, std::int64_t n,
              std::int64_t width, float scale, float* out) {
  for (std::int64_t d = 0; d < width; d += 8) {
    const __m256i m = lane_mask(width - d);
    const float* col = rows + d;
    __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(), _mm256_setzero_ps(),
                     _mm256_setzero_ps()};
    std::int64_t t = 0;
    for (; t + 4 <= n; t += 4) {
      for (int u = 0; u < 4; ++u) {
        acc[u] = _mm256_fmadd_ps(_mm256_set1_ps(weight[t + u]),
                                 _mm256_maskload_ps(col + (t + u) * ld, m), acc[u]);
      }
    }
    for (; t < n; ++t) {
      acc[0] = _mm256_fmadd_ps(_mm256_set1_ps(weight[t]),
                               _mm256_maskload_ps(col + t * ld, m), acc[0]);
    }
    const __m256 sum =
        _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
    _mm256_maskstore_ps(out + d, m, _mm256_mul_ps(sum, _mm256_set1_ps(scale)));
  }
}

void silu_mul_lanes(const float* gate, const float* up, float* out, std::int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0F);
  for (std::int64_t i = 0; i < n; i += 8) {
    const __m256i m = lane_mask(n - i);
    const __m256 g = _mm256_maskload_ps(gate + i, m);
    const __m256 e = exp8(_mm256_sub_ps(_mm256_setzero_ps(), g));
    const __m256 sig = _mm256_div_ps(one, _mm256_add_ps(one, e));
    const __m256 u = _mm256_maskload_ps(up + i, m);
    _mm256_maskstore_ps(out + i, m, _mm256_mul_ps(_mm256_mul_ps(g, sig), u));
  }
}

#else

// Portable tier: the same 16-lane order in plain arrays (multiply and add
// stay unfused on hosts without FMA). gemv blocks are single dot() calls, so
// they share the one compiled reduction. Elementwise math goes through
// noinline scalar functions: an inlined loop may be vectorized with a body
// and an epilogue that round differently, which would make an element's
// value depend on its position.
constexpr std::int64_t kGemvCols = 1;

[[gnu::noinline]] float clamped_exp(float x) {
  return std::exp(std::min(std::max(x, kExpLo), kExpHi));
}

[[gnu::noinline]] float silu_gate(float gate, float up) {
  return gate / (1.0F + clamped_exp(-gate)) * up;
}

inline float dot_lanes(const float* a, const float* b, std::int64_t n) {
  float lanes[16] = {};
  for (std::int64_t p = 0; p < n; ++p) lanes[p % 16] += a[p] * b[p];
  for (int width = 8; width >= 1; width /= 2) {
    for (int l = 0; l < width; ++l) lanes[l] += lanes[l + width];
  }
  return lanes[0];
}

void gemv_block(const float* x, const float* w, std::int64_t, float* y, std::int64_t k,
                bool accumulate) {
  const float value = dot(x, w, k);
  *y = accumulate ? *y + value : value;
}

float exp_sum(float* v, std::int64_t n, float shift) {
  float sum = 0.0F;
  for (std::int64_t i = 0; i < n; ++i) {
    v[i] = clamped_exp(v[i] - shift);
    sum += v[i];
  }
  return sum;
}

void mix_rows(const float* weight, const float* rows, std::int64_t ld, std::int64_t n,
              std::int64_t width, float scale, float* out) {
  for (std::int64_t d = 0; d < width; ++d) {
    float acc = 0.0F;
    for (std::int64_t t = 0; t < n; ++t) acc += weight[t] * rows[t * ld + d];
    out[d] = acc * scale;
  }
}

void silu_mul_lanes(const float* gate, const float* up, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = silu_gate(gate[i], up[i]);
}

#endif

// One k-chunk of a <=4-row output block: full-width micro tiles, then the
// generic patch kernel for the column tail (and for short row blocks).
template <bool TransA>
void nn_block_rows(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                   float* c, std::int64_t ldc, std::int64_t rows, std::int64_t n,
                   std::int64_t k, bool accumulate) {
  std::int64_t jb = 0;
  if (rows == kMicroRows) {
    for (; jb + kMicroCols <= n; jb += kMicroCols) {
      micro_nn<TransA>(a, lda, b + jb, ldb, c + jb, ldc, k, accumulate);
    }
  }
  if (jb < n) {
    patch_nn<TransA>(a, lda, b + jb, ldb, c + jb, ldc, rows, n - jb, k, accumulate);
  }
}

// Shared NN/TN driver: shard 4-row output blocks, k-tile inside each job.
template <bool TransA>
void gemm_nn_like(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
    return;
  }
  const std::int64_t lda = TransA ? m : k;
  const std::int64_t blocks = (m + kMicroRows - 1) / kMicroRows;
  const bool parallel = should_parallelize(m, 2 * m * k * n);
  run_jobs(blocks, parallel, [=](std::size_t blk) {
    const std::int64_t i0 = static_cast<std::int64_t>(blk) * kMicroRows;
    const std::int64_t rows = std::min(kMicroRows, m - i0);
    const float* a_block = TransA ? a + i0 : a + i0 * lda;
    float* c_block = c + i0 * n;
    for (std::int64_t p0 = 0; p0 < k; p0 += kKTile) {
      const std::int64_t kc = std::min(kKTile, k - p0);
      const float* a_chunk = TransA ? a_block + p0 * lda : a_block + p0;
      nn_block_rows<TransA>(a_chunk, lda, b + p0 * n, n, c_block, n, rows, n, kc,
                            accumulate || p0 > 0);
    }
  });
}

}  // namespace

ScopedDispatch::ScopedDispatch(DispatchMode mode, ThreadPool* pool)
    : saved_mode_{t_dispatch_mode}, saved_pool_{t_dispatch_pool} {
  t_dispatch_mode = mode;
  t_dispatch_pool = pool;
}

ScopedDispatch::~ScopedDispatch() {
  t_dispatch_mode = saved_mode_;
  t_dispatch_pool = saved_pool_;
}

void axpy(float alpha, const float* x, float* y, std::int64_t n, bool accumulate) {
  if (accumulate) {
    for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  } else {
    for (std::int64_t i = 0; i < n; ++i) y[i] = alpha * x[i];
  }
}

// noinline for the same reason as softmax_row/rmsnorm_row: dot runs both
// from serial loops and from pool jobs, and every call site must execute one
// shared fast-math compilation of the reduction to stay bitwise-identical
// across thread counts.
[[gnu::noinline]] float dot(const float* a, const float* b, std::int64_t n) {
  return dot_lanes(a, b, n);
}

void gemv(const float* x, const float* w, std::int64_t ldw, float* y, std::int64_t k,
          std::int64_t n, bool accumulate) {
#if defined(__AVX512F__)
  // 1 x 16 tiles; the n % 16 tail columns are one partial tile.
  dot_tiles<1>(x, 0, w, ldw, y, 0, k, 1, n, accumulate);
#else
  std::int64_t j = 0;
  for (; j + kGemvCols <= n; j += kGemvCols) {
    gemv_block(x, w + j * ldw, ldw, y + j, k, accumulate);
  }
  for (; j < n; ++j) {
    const float value = dot(x, w + j * ldw, k);
    y[j] = accumulate ? y[j] + value : value;
  }
#endif
}

void attend(const float* q, const float* keys, const float* values, std::int64_t ld,
            std::int64_t n, std::int64_t head_dim, float scale, float* scratch,
            float* out) {
  gemv(q, keys, ld, scratch, head_dim, n, /*accumulate=*/false);
  for (std::int64_t t = 0; t < n; ++t) scratch[t] *= scale;
  const float max_score = *std::max_element(scratch, scratch + n);
  const float sum = exp_sum(scratch, n, max_score);
  mix_rows(scratch, values, ld, n, head_dim, 1.0F / sum, out);
}

void silu_mul(const float* gate, const float* up, float* out, std::int64_t n) {
  silu_mul_lanes(gate, up, out, n);
}

void gemm_nn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate) {
  gemm_nn_like<false>(a, b, c, m, k, n, accumulate);
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate) {
  gemm_nn_like<true>(a, b, c, m, k, n, accumulate);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  const bool parallel = should_parallelize(m, 2 * m * k * n);
  if (!kHasNtMicro || m < kMicroRows || n < 4 || k < 8) {
    // Small shapes (single-token decode, LoRA rank-k products) and hosts
    // without a SIMD micro-kernel: one gemv per output row.
    run_jobs(m, parallel, [=](std::size_t row) {
      const auto i = static_cast<std::int64_t>(row);
      gemv(a + i * k, b, k, c + i * n, k, n, accumulate);
    });
    return;
  }
  const std::int64_t blocks = (m + kMicroRows - 1) / kMicroRows;
  run_jobs(blocks, parallel, [=](std::size_t blk) {
    const std::int64_t i0 = static_cast<std::int64_t>(blk) * kMicroRows;
    const std::int64_t rows = std::min(kMicroRows, m - i0);
    if (rows == kMicroRows) {
      std::int64_t jb = 0;
      for (; jb + 4 <= n; jb += 4) {
        for (std::int64_t p0 = 0; p0 < k; p0 += kKTile) {
          const std::int64_t kc = std::min(kKTile, k - p0);
          micro_nt(a + i0 * k + p0, k, b + jb * k + p0, k, c + i0 * n + jb, n, kc,
                   accumulate || p0 > 0);
        }
      }
      for (; jb < n; ++jb) {
        const float* b_row = b + jb * k;
        for (std::int64_t i = i0; i < i0 + kMicroRows; ++i) {
          const float value = dot(a + i * k, b_row, k);
          float* out = c + i * n + jb;
          *out = accumulate ? *out + value : value;
        }
      }
    } else {
      for (std::int64_t i = i0; i < i0 + rows; ++i) {
        gemv(a + i * k, b, k, c + i * n, k, n, accumulate);
      }
    }
  });
}

void gemm_nt_rowwise(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  // Every element is dot()-identical, so any sharding over the column blocks
  // is bitwise-identical to serial and to m separate m=1 gemm_nt calls. The
  // block-outer loop is the batching win: one block of B rows services all m
  // input rows before the next is streamed in.
  const std::int64_t blocks = (n + kGemvCols - 1) / kGemvCols;
  const bool parallel = should_parallelize(n, 2 * m * k * n);
  run_jobs(blocks, parallel, [=](std::size_t blk) {
    const std::int64_t j0 = static_cast<std::int64_t>(blk) * kGemvCols;
    const std::int64_t cols = std::min(kGemvCols, n - j0);
#if defined(__AVX512F__)
    rowwise_block(a, b, c, m, k, n, j0, cols, accumulate);
#else
    for (std::int64_t i = 0; i < m; ++i) {
      gemv(a + i * k, b + j0 * k, k, c + i * n + j0, k, cols, accumulate);
    }
#endif
  });
}

// The per-row bodies are noinline on purpose: under -ffast-math GCC is free
// to pick a different reduction order for an inlined copy (serial loop) than
// for the out-of-line copy invoked through the thread pool's type-erased
// callable, which would make parallel results bitwise-diverge from serial
// ones. A single compiled copy keeps the reduction order identical on both
// paths.
[[gnu::noinline]] void softmax_row(float* row, std::int64_t cols) {
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

[[gnu::noinline]] void rmsnorm_row(const float* x_row, const float* weight,
                                   float* out_row, std::int64_t cols, float eps,
                                   float* inv_rms_slot) {
  float mean_sq = 0.0F;
  for (std::int64_t c = 0; c < cols; ++c) mean_sq += x_row[c] * x_row[c];
  mean_sq /= static_cast<float>(cols);
  const float scale = 1.0F / std::sqrt(mean_sq + eps);
  if (inv_rms_slot != nullptr) *inv_rms_slot = scale;
  for (std::int64_t c = 0; c < cols; ++c) out_row[c] = x_row[c] * scale * weight[c];
}

void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  const bool parallel = should_parallelize_rows(rows, rows * cols);
  run_jobs(rows, parallel, [=](std::size_t r) {
    softmax_row(x + static_cast<std::int64_t>(r) * cols, cols);
  });
}

void rmsnorm_forward(const float* x, const float* weight, float* out,
                     std::int64_t rows, std::int64_t cols, float eps,
                     float* inv_rms) {
  const bool parallel = should_parallelize_rows(rows, rows * cols);
  run_jobs(rows, parallel, [=](std::size_t rr) {
    const auto r = static_cast<std::int64_t>(rr);
    rmsnorm_row(x + r * cols, weight, out + r * cols, cols, eps,
                inv_rms != nullptr ? inv_rms + r : nullptr);
  });
}

float silu(float x) noexcept {
  const float sig = 1.0F / (1.0F + std::exp(-x));
  return x * sig;
}

float silu_derivative(float x) noexcept {
  const float sig = 1.0F / (1.0F + std::exp(-x));
  return sig * (1.0F + x * (1.0F - sig));
}

void rope_apply(float* vec, std::int64_t n_heads, std::int64_t head_dim,
                std::int64_t pos, float base, float sign) {
  const auto table = RopeTable::get(head_dim, base, pos + 1);
  table->apply(vec, n_heads, pos, sign);
}

}  // namespace sdd::kernels
