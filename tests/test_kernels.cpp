// Correctness tests for the raw compute kernels against naive references.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"
#include "util/proc.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDD_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SDD_TSAN 1
#endif

namespace sdd {
namespace {

std::vector<float> random_vec(Rng& rng, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& x : v) x = rng.gaussian_float(0.0F, 1.0F);
  return v;
}

void naive_gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, NnMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng{static_cast<std::uint64_t>(m * 10007 + k * 101 + n)};
  const auto a = random_vec(rng, m * k);
  const auto b = random_vec(rng, k * n);
  std::vector<float> got(static_cast<std::size_t>(m * n));
  std::vector<float> want(static_cast<std::size_t>(m * n));
  kernels::gemm_nn(a.data(), b.data(), got.data(), m, k, n, false);
  naive_gemm_nn(a.data(), b.data(), want.data(), m, k, n);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-3F);
}

TEST_P(GemmShapes, NtMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng{static_cast<std::uint64_t>(m * 7 + k * 11 + n * 13)};
  const auto a = random_vec(rng, m * k);
  const auto b = random_vec(rng, n * k);  // [n, k]
  std::vector<float> got(static_cast<std::size_t>(m * n));
  kernels::gemm_nt(a.data(), b.data(), got.data(), m, k, n, false);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[j * k + p];
      }
      EXPECT_NEAR(got[i * n + j], static_cast<float>(acc), 1e-3F);
    }
  }
}

TEST_P(GemmShapes, TnMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng{static_cast<std::uint64_t>(m + k + n)};
  const auto a = random_vec(rng, k * m);  // [k, m]
  const auto b = random_vec(rng, k * n);
  std::vector<float> got(static_cast<std::size_t>(m * n));
  kernels::gemm_tn(a.data(), b.data(), got.data(), m, k, n, false);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[p * m + i]) * b[p * n + j];
      }
      EXPECT_NEAR(got[i * n + j], static_cast<float>(acc), 1e-3F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                                           std::tuple{7, 5, 3}, std::tuple{16, 16, 16},
                                           std::tuple{33, 17, 9},
                                           std::tuple{128, 64, 96}));

TEST(Kernels, GemmAccumulateAddsIntoC) {
  const std::vector<float> a{1, 2};
  const std::vector<float> b{3, 4};
  std::vector<float> c{10.0F};
  kernels::gemm_nt(a.data(), b.data(), c.data(), 1, 2, 1, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 10.0F + 11.0F);
}

TEST(Kernels, SoftmaxRowsSumToOneAndOrderPreserved) {
  Rng rng{4};
  auto x = random_vec(rng, 6 * 9);
  auto original = x;
  kernels::softmax_rows(x.data(), 6, 9);
  for (int r = 0; r < 6; ++r) {
    float sum = 0.0F;
    for (int c = 0; c < 9; ++c) {
      sum += x[r * 9 + c];
      EXPECT_GT(x[r * 9 + c], 0.0F);
    }
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
    // Larger logits must keep larger probabilities.
    for (int c = 1; c < 9; ++c) {
      if (original[r * 9 + c] > original[r * 9 + c - 1]) {
        EXPECT_GT(x[r * 9 + c], x[r * 9 + c - 1]);
      }
    }
  }
}

TEST(Kernels, SoftmaxNumericallyStable) {
  std::vector<float> x{1000.0F, 1000.0F, -1000.0F};
  kernels::softmax_rows(x.data(), 1, 3);
  EXPECT_NEAR(x[0], 0.5F, 1e-5F);
  EXPECT_NEAR(x[1], 0.5F, 1e-5F);
  EXPECT_NEAR(x[2], 0.0F, 1e-5F);
}

TEST(Kernels, SiluDerivativeMatchesFiniteDifference) {
  for (float x : {-3.0F, -0.5F, 0.0F, 0.7F, 2.5F}) {
    const float eps = 1e-3F;
    const float numeric = (kernels::silu(x + eps) - kernels::silu(x - eps)) / (2 * eps);
    EXPECT_NEAR(kernels::silu_derivative(x), numeric, 1e-3F);
  }
}

TEST(Kernels, RopeIsNormPreservingAndInvertible) {
  Rng rng{5};
  const std::int64_t heads = 2, head_dim = 8;
  auto v = random_vec(rng, heads * head_dim);
  const auto original = v;

  double norm_before = 0.0;
  for (float x : v) norm_before += static_cast<double>(x) * x;

  kernels::rope_apply(v.data(), heads, head_dim, /*pos=*/7, 10000.0F, 1.0F);
  double norm_after = 0.0;
  for (float x : v) norm_after += static_cast<double>(x) * x;
  EXPECT_NEAR(norm_before, norm_after, 1e-3);

  kernels::rope_apply(v.data(), heads, head_dim, /*pos=*/7, 10000.0F, -1.0F);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(v[i], original[i], 1e-4F);
}

TEST(Kernels, RopePositionZeroIsIdentity) {
  Rng rng{6};
  auto v = random_vec(rng, 8);
  const auto original = v;
  kernels::rope_apply(v.data(), 1, 8, /*pos=*/0, 10000.0F, 1.0F);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(v[i], original[i]);
}

TEST(Kernels, RopeRelativePropertyDotDependsOnDistance) {
  // <R(p) q, R(p+d) k> should depend on d, not on p.
  Rng rng{7};
  const std::int64_t head_dim = 8;
  const auto q = random_vec(rng, head_dim);
  const auto k = random_vec(rng, head_dim);
  const auto rotated_dot = [&](std::int64_t pq, std::int64_t pk) {
    auto qr = q;
    auto kr = k;
    kernels::rope_apply(qr.data(), 1, head_dim, pq, 10000.0F, 1.0F);
    kernels::rope_apply(kr.data(), 1, head_dim, pk, 10000.0F, 1.0F);
    return kernels::dot(qr.data(), kr.data(), head_dim);
  };
  EXPECT_NEAR(rotated_dot(0, 3), rotated_dot(5, 8), 1e-3F);
  EXPECT_NEAR(rotated_dot(2, 2), rotated_dot(9, 9), 1e-3F);
}

TEST(Kernels, RmsNormForwardMatchesManual) {
  const std::vector<float> x{3.0F, 4.0F};  // rms = sqrt(12.5)
  const std::vector<float> w{2.0F, 0.5F};
  std::vector<float> out(2);
  float inv_rms = 0.0F;
  kernels::rmsnorm_forward(x.data(), w.data(), out.data(), 1, 2, 0.0F, &inv_rms);
  const float rms = std::sqrt((9.0F + 16.0F) / 2.0F);
  EXPECT_NEAR(out[0], 3.0F / rms * 2.0F, 1e-5F);
  EXPECT_NEAR(out[1], 4.0F / rms * 0.5F, 1e-5F);
  EXPECT_NEAR(inv_rms, 1.0F / rms, 1e-5F);
}

TEST(Kernels, DotHandlesTailElements) {
  const std::vector<float> a{1, 2, 3, 4, 5, 6, 7};
  const std::vector<float> b{1, 1, 1, 1, 1, 1, 1};
  EXPECT_FLOAT_EQ(kernels::dot(a.data(), b.data(), 7), 28.0F);
}

// ------------------------------------------------------------------------
// Equivalence against the retained naive reference (kernels_ref.cpp): the
// blocked/vectorized kernels must agree with the pre-optimization scalar
// loops to within 1e-4 on shapes that are NOT multiples of the tile sizes
// (4-row micro-tiles, 16/32-lane SIMD widths, 512-deep k-tiles), in both
// accumulate modes.

class RefEquivalence : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RefEquivalence, GemmsMatchReference) {
  const auto [m, k, n] = GetParam();
  for (const bool accumulate : {false, true}) {
    Rng rng{static_cast<std::uint64_t>(m * 31 + k * 17 + n * 7 + (accumulate ? 1 : 0))};
    const auto a_nn = random_vec(rng, m * k);   // also A for NT ([m, k])
    const auto a_tn = random_vec(rng, k * m);   // A for TN ([k, m])
    const auto b_nn = random_vec(rng, k * n);   // also B for TN ([k, n])
    const auto b_nt = random_vec(rng, n * k);   // B for NT ([n, k])
    const auto c_init = random_vec(rng, m * n);

    const auto check = [&](const char* label, auto&& fast, auto&& naive,
                           const float* a, const float* b) {
      auto got = c_init;
      auto want = c_init;
      fast(a, b, got.data(), m, k, n, accumulate);
      naive(a, b, want.data(), m, k, n, accumulate);
      float max_err = 0.0F;
      for (std::size_t i = 0; i < got.size(); ++i) {
        max_err = std::max(max_err, std::abs(got[i] - want[i]));
      }
      EXPECT_LE(max_err, 1e-4F) << label << " m=" << m << " k=" << k << " n=" << n
                                << " accumulate=" << accumulate;
    };
    check("gemm_nn", kernels::gemm_nn, kernels::ref::gemm_nn, a_nn.data(), b_nn.data());
    check("gemm_nt", kernels::gemm_nt, kernels::ref::gemm_nt, a_nn.data(), b_nt.data());
    check("gemm_tn", kernels::gemm_tn, kernels::ref::gemm_tn, a_tn.data(), b_nn.data());
  }
}

INSTANTIATE_TEST_SUITE_P(OddShapes, RefEquivalence,
                         ::testing::Values(std::tuple{5, 7, 9}, std::tuple{13, 31, 17},
                                           std::tuple{33, 65, 129},
                                           std::tuple{67, 129, 65},
                                           std::tuple{67, 515, 35},   // k-tile tail
                                           std::tuple{3, 1027, 2}));  // dot fallback

TEST(RefEquivalence, SoftmaxMatchesReference) {
  Rng rng{11};
  auto got = random_vec(rng, 7 * 33);
  auto want = got;
  kernels::softmax_rows(got.data(), 7, 33);
  kernels::ref::softmax_rows(want.data(), 7, 33);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-4F);
}

TEST(RefEquivalence, RmsNormMatchesReference) {
  Rng rng{12};
  const auto x = random_vec(rng, 9 * 65);
  const auto w = random_vec(rng, 65);
  std::vector<float> got(9 * 65), want(9 * 65), got_rms(9), want_rms(9);
  kernels::rmsnorm_forward(x.data(), w.data(), got.data(), 9, 65, 1e-5F,
                           got_rms.data());
  kernels::ref::rmsnorm_forward(x.data(), w.data(), want.data(), 9, 65, 1e-5F,
                                want_rms.data());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-4F);
  for (std::size_t i = 0; i < got_rms.size(); ++i) {
    EXPECT_NEAR(got_rms[i], want_rms[i], 1e-4F);
  }
}

TEST(RefEquivalence, RopeTableMatchesPerCallTrig) {
  Rng rng{13};
  const std::int64_t heads = 3, head_dim = 10;
  for (const std::int64_t pos : {0, 1, 7, 63, 300}) {
    for (const float sign : {1.0F, -1.0F}) {
      auto got = random_vec(rng, heads * head_dim);
      auto want = got;
      kernels::rope_apply(got.data(), heads, head_dim, pos, 10000.0F, sign);
      kernels::ref::rope_apply(want.data(), heads, head_dim, pos, 10000.0F, sign);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-4F) << "pos=" << pos << " sign=" << sign;
      }
    }
  }
}

// Decode-path kernels against the reference: gemv over block and tail
// columns (n not a multiple of 16, k tails), attention at the head sizes the
// models use, and the SwiGLU gate at d_ff = 24 plus large-magnitude inputs
// that reach the exp clamps.

float max_abs_diff(const std::vector<float>& got, const std::vector<float>& want) {
  float max_err = 0.0F;
  for (std::size_t i = 0; i < got.size(); ++i) {
    max_err = std::max(max_err, std::abs(got[i] - want[i]));
  }
  return max_err;
}

TEST(RefEquivalence, GemvMatchesReference) {
  for (const std::int64_t k : {5, 16, 24, 64, 100}) {
    for (const std::int64_t n : {3, 16, 24, 37, 64}) {
      for (const bool accumulate : {false, true}) {
        Rng rng{static_cast<std::uint64_t>(k * 131 + n * 7 + (accumulate ? 1 : 0))};
        const auto x = random_vec(rng, k);
        const auto w = random_vec(rng, n * k);
        auto got = random_vec(rng, n);
        auto want = got;
        kernels::gemv(x.data(), w.data(), k, got.data(), k, n, accumulate);
        kernels::ref::gemm_nt(x.data(), w.data(), want.data(), 1, k, n, accumulate);
        EXPECT_LE(max_abs_diff(got, want), 1e-4F)
            << "k=" << k << " n=" << n << " accumulate=" << accumulate;
      }
    }
  }
}

TEST(RefEquivalence, AttendMatchesReference) {
  const std::int64_t heads = 3;
  for (const std::int64_t head_dim : {8, 16, 24, 64}) {
    for (const std::int64_t n : {1, 5, 16, 37, 100}) {
      const std::int64_t ld = heads * head_dim;
      Rng rng{static_cast<std::uint64_t>(head_dim * 1009 + n)};
      const auto q = random_vec(rng, head_dim);
      const auto keys = random_vec(rng, n * ld);
      const auto values = random_vec(rng, n * ld);
      const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim));
      for (std::int64_t h = 0; h < heads; ++h) {
        std::vector<float> scratch(static_cast<std::size_t>(n));
        std::vector<float> got(static_cast<std::size_t>(head_dim));
        std::vector<float> want(got.size());
        kernels::attend(q.data(), keys.data() + h * head_dim,
                        values.data() + h * head_dim, ld, n, head_dim, scale,
                        scratch.data(), got.data());
        kernels::ref::attend(q.data(), keys.data() + h * head_dim,
                             values.data() + h * head_dim, ld, n, head_dim, scale,
                             want.data());
        EXPECT_LE(max_abs_diff(got, want), 1e-4F)
            << "head_dim=" << head_dim << " n=" << n << " head=" << h;
      }
    }
  }
}

TEST(RefEquivalence, SiluMulMatchesReference) {
  for (const std::int64_t n : {1, 7, 24, 72, 100}) {
    Rng rng{static_cast<std::uint64_t>(n)};
    auto gate = random_vec(rng, n);
    const auto up = random_vec(rng, n);
    for (std::int64_t i = 0; i < n; i += 5) gate[static_cast<std::size_t>(i)] *= 40.0F;
    std::vector<float> got(static_cast<std::size_t>(n));
    std::vector<float> want(got.size());
    kernels::silu_mul(gate.data(), up.data(), got.data(), n);
    kernels::ref::silu_mul(gate.data(), up.data(), want.data(), n);
    // Relative to the product's magnitude: gates of +-100 give outputs ~100.
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-4F * std::max(1.0F, std::abs(want[i])))
          << "n=" << n << " i=" << i << " gate=" << gate[i];
    }
  }
  // In place (out aliases gate), as SwiGluMlp uses it.
  Rng rng{99};
  auto gate = random_vec(rng, 24);
  const auto up = random_vec(rng, 24);
  std::vector<float> want(24);
  kernels::ref::silu_mul(gate.data(), up.data(), want.data(), 24);
  kernels::silu_mul(gate.data(), up.data(), gate.data(), 24);
  EXPECT_LE(max_abs_diff(gate, want), 1e-4F);
}

// ------------------------------------------------------------------------
// Determinism: the parallel paths shard disjoint output rows and keep the
// per-row reduction order fixed, so a kernel run across a thread pool must be
// BIT-identical to a serial run. This is what keeps checkpoint/resume
// bit-exact (test_robustness) regardless of SDD_THREADS.

TEST(KernelDeterminism, ParallelMatchesSerialBitExact) {
  ThreadPool pool{3};
  // Big enough that every kernel clears its parallel dispatch thresholds.
  const std::int64_t m = 131, k = 257, n = 129;
  Rng rng{14};
  const auto a = random_vec(rng, m * k);
  const auto a_t = random_vec(rng, k * m);
  const auto b = random_vec(rng, k * n);
  const auto b_t = random_vec(rng, n * k);
  const auto c_init = random_vec(rng, m * n);

  const auto run_all = [&](kernels::DispatchMode mode, ThreadPool* run_pool) {
    kernels::ScopedDispatch dispatch{mode, run_pool};
    std::vector<std::vector<float>> outs;
    for (const bool accumulate : {false, true}) {
      auto c = c_init;
      kernels::gemm_nn(a.data(), b.data(), c.data(), m, k, n, accumulate);
      outs.push_back(c);
      c = c_init;
      kernels::gemm_nt(a.data(), b_t.data(), c.data(), m, k, n, accumulate);
      outs.push_back(c);
      c = c_init;
      kernels::gemm_tn(a_t.data(), b.data(), c.data(), m, k, n, accumulate);
      outs.push_back(c);
    }
    auto soft = a;
    kernels::softmax_rows(soft.data(), m, k);
    outs.push_back(soft);
    std::vector<float> normed(static_cast<std::size_t>(m * k));
    kernels::rmsnorm_forward(a.data(), b.data(), normed.data(), m, k, 1e-5F, nullptr);
    outs.push_back(normed);
    return outs;
  };

  const auto serial = run_all(kernels::DispatchMode::kForceSerial, nullptr);
  const auto parallel = run_all(kernels::DispatchMode::kForceParallel, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t o = 0; o < serial.size(); ++o) {
    ASSERT_EQ(serial[o].size(), parallel[o].size());
    for (std::size_t i = 0; i < serial[o].size(); ++i) {
      // Exact bit equality, not a tolerance: divergence here would break
      // deterministic resume.
      ASSERT_EQ(serial[o][i], parallel[o][i])
          << "output " << o << " element " << i << " diverged across thread counts";
    }
  }
}

// The decode contract (span == step == speculative verify) rests on these:
// every gemv output is bitwise a dot() call, whatever its block or tail
// position, row stride or accumulate mode.
TEST(KernelDeterminism, GemvMatchesDotBitExact) {
  for (const std::int64_t k : {1, 7, 15, 16, 17, 24, 33, 64, 100, 257}) {
    for (const std::int64_t n : {1, 4, 15, 16, 17, 33, 64}) {
      const std::int64_t ldw = k + 3;  // strided rows, like per-head KV slices
      Rng rng{static_cast<std::uint64_t>(k * 37 + n)};
      const auto x = random_vec(rng, k);
      const auto w = random_vec(rng, n * ldw);
      const auto y_init = random_vec(rng, n);
      for (const bool accumulate : {false, true}) {
        auto y = y_init;
        kernels::gemv(x.data(), w.data(), ldw, y.data(), k, n, accumulate);
        for (std::int64_t j = 0; j < n; ++j) {
          const float value = kernels::dot(x.data(), w.data() + j * ldw, k);
          const auto at = static_cast<std::size_t>(j);
          const float want = accumulate ? y_init[at] + value : value;
          ASSERT_EQ(y[at], want)
              << "k=" << k << " n=" << n << " j=" << j << " accumulate=" << accumulate;
        }
      }
    }
  }
}

// gemm_nt_rowwise runs register tiles of up to four input rows, partial ones
// for left-over rows and columns; every output must still be bitwise dot(),
// whatever tile, row group or column it lands in.
TEST(KernelDeterminism, RowwiseMatchesDotBitExact) {
  for (const std::int64_t m : {1, 2, 3, 4, 5, 7, 8, 9, 16, 33}) {
    for (const std::int64_t k : {1, 7, 15, 16, 17, 64, 100, 128, 257}) {
      for (const std::int64_t n : {1, 15, 16, 17, 33, 64, 316}) {
        Rng rng{static_cast<std::uint64_t>(m * 100003 + k * 37 + n)};
        const auto a = random_vec(rng, m * k);
        const auto b = random_vec(rng, n * k);
        const auto c_init = random_vec(rng, m * n);
        for (const bool accumulate : {false, true}) {
          auto c = c_init;
          kernels::gemm_nt_rowwise(a.data(), b.data(), c.data(), m, k, n, accumulate);
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              const float value = kernels::dot(a.data() + i * k, b.data() + j * k, k);
              const auto at = static_cast<std::size_t>(i * n + j);
              const float want = accumulate ? c_init[at] + value : value;
              ASSERT_EQ(c[at], want) << "m=" << m << " k=" << k << " n=" << n
                                     << " i=" << i << " j=" << j
                                     << " accumulate=" << accumulate;
            }
          }
        }
      }
    }
  }
}

// An element's value must not depend on the vector lane it lands in: a span
// runs silu_mul over count * d_ff contiguous values while a step runs d_ff,
// so at d_ff = 24 the same gate value sits in a full vector in one call and
// in a masked tail in the other.
TEST(KernelDeterminism, DecodeKernelsIndependentOfLanePosition) {
  Rng rng{17};
  auto gate = random_vec(rng, 80);
  const auto up = random_vec(rng, 80);
  gate[3] = 95.0F;
  gate[21] = -95.0F;
  std::vector<float> whole(80);
  kernels::silu_mul(gate.data(), up.data(), whole.data(), 80);
  for (std::int64_t offset = 0; offset <= 17; ++offset) {
    for (const std::int64_t count : {1, 5, 24, 40}) {
      std::vector<float> part(static_cast<std::size_t>(count));
      kernels::silu_mul(gate.data() + offset, up.data() + offset, part.data(), count);
      for (std::int64_t i = 0; i < count; ++i) {
        ASSERT_EQ(part[static_cast<std::size_t>(i)],
                  whole[static_cast<std::size_t>(offset + i)])
            << "offset=" << offset << " count=" << count << " i=" << i;
      }
    }
  }

  // attend's value mix: shifting the value window by `shift` columns moves
  // each output element to another lane (and across the masked tail at
  // head_dim 24) without changing its value.
  const std::int64_t n = 37, head_dim = 24, ld = 48;
  const auto q = random_vec(rng, head_dim);
  const auto keys = random_vec(rng, n * ld);
  const auto values = random_vec(rng, n * ld);
  std::vector<float> scratch(static_cast<std::size_t>(n));
  std::vector<float> base(static_cast<std::size_t>(head_dim));
  kernels::attend(q.data(), keys.data(), values.data(), ld, n, head_dim, 0.25F,
                  scratch.data(), base.data());
  for (const std::int64_t shift : {1, 3, 8, 16}) {
    std::vector<float> moved(static_cast<std::size_t>(head_dim));
    kernels::attend(q.data(), keys.data(), values.data() + shift, ld, n, head_dim, 0.25F,
                    scratch.data(), moved.data());
    for (std::int64_t d = 0; d + shift < head_dim; ++d) {
      ASSERT_EQ(moved[static_cast<std::size_t>(d)],
                base[static_cast<std::size_t>(d + shift)])
          << "shift=" << shift << " d=" << d;
    }
  }
}

// gemm_nt_rowwise runs every tile kind under the pool: 4 x 4 tiles for the
// row groups, then the 1 x 16 tile (m = 33), a 2 x 8 tile (m = 34) or a
// 4 x 4 tile with a repeated row (m = 35) for the rows left over, and the
// partial block for column 128 of n = 129.
TEST(KernelDeterminism, DecodeKernelsParallelMatchSerial) {
  ThreadPool pool{3};
  const std::int64_t k = 100, n = 129;

  const auto run_all = [&](kernels::DispatchMode mode, ThreadPool* run_pool) {
    kernels::ScopedDispatch dispatch{mode, run_pool};
    Rng rng{15};
    std::vector<std::vector<float>> outs;
    for (const std::int64_t m : {33, 34, 35}) {
      const auto a = random_vec(rng, m * k);
      const auto b = random_vec(rng, n * k);
      const auto c_init = random_vec(rng, m * n);
      for (const bool accumulate : {false, true}) {
        auto c = c_init;
        kernels::gemm_nt_rowwise(a.data(), b.data(), c.data(), m, k, n, accumulate);
        outs.push_back(c);
        c = c_init;
        kernels::gemm_nt(a.data(), b.data(), c.data(), 3, k, n, accumulate);  // gemv rows
        outs.push_back(c);
      }
    }
    return outs;
  };

  const auto serial = run_all(kernels::DispatchMode::kForceSerial, nullptr);
  const auto parallel = run_all(kernels::DispatchMode::kForceParallel, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t o = 0; o < serial.size(); ++o) {
    for (std::size_t i = 0; i < serial[o].size(); ++i) {
      ASSERT_EQ(serial[o][i], parallel[o][i]) << "output " << o << " element " << i;
    }
  }
}

#if !defined(SDD_TSAN)
// A fork()ed child inherits the global pool's state but none of its worker
// threads. The caller runs every chunk no worker claimed, so a sharded GEMM
// in the child still finishes, bitwise equal to the parent's serial result.
TEST(ThreadPoolFork, ChildOfAWarmedPoolFinishesAShardedGemm) {
  const std::int64_t m = 96, k = 64, n = 80;
  Rng rng{16};
  const auto a = random_vec(rng, m * k);
  const auto b = random_vec(rng, n * k);
  const auto gemm = [&](kernels::DispatchMode mode) {
    kernels::ScopedDispatch dispatch{mode};
    std::vector<float> c(static_cast<std::size_t>(m * n));
    kernels::gemm_nt(a.data(), b.data(), c.data(), m, k, n, false);
    return c;
  };
  const auto serial = gemm(kernels::DispatchMode::kForceSerial);
  ASSERT_EQ(gemm(kernels::DispatchMode::kForceParallel), serial);  // warms the pool

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setpgid(0, 0);  // a timed-out child is killed alone, not the test's group
    ::_exit(gemm(kernels::DispatchMode::kForceParallel) == serial ? 0 : 1);
  }
  ::setpgid(pid, pid);
  proc::Child child = proc::Child::adopt(pid);
  const auto status = child.wait(20'000);
  ASSERT_TRUE(status.has_value()) << "child blocked in parallel_for";
  EXPECT_TRUE(status->clean()) << "exit " << status->exit_code;
}
#endif  // !SDD_TSAN

}  // namespace
}  // namespace sdd
