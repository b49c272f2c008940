// Tests for RNG, hashing, serialization, thread pool, tables, and env config.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "util/env.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace sdd {
namespace {

TEST(Rng, Deterministic) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng base{5};
  Rng child1 = base.fork(0);
  Rng child2 = base.fork(1);
  Rng child1_again = Rng{5}.fork(0);
  EXPECT_EQ(child1.next_u64(), child1_again.next_u64());
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng{8};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, GaussianMoments) {
  Rng rng{9};
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng{10};
  const std::vector<double> weights{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(Rng, WeightedIndexRejectsZeroTotal) {
  Rng rng{11};
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(std::span<const double>{weights}),
               std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{12};
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng{13};
  const auto sample = rng.sample_indices(20, 10);
  EXPECT_EQ(sample.size(), 10U);
  EXPECT_EQ(std::set<std::size_t>(sample.begin(), sample.end()).size(), 10U);
  EXPECT_THROW(rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(Hash, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("hello"), fnv1a("hello"));
  EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Hash, HexFormat) {
  EXPECT_EQ(hash_hex(0), "0000000000000000");
  EXPECT_EQ(hash_hex(0xDEADBEEFULL), "00000000deadbeef");
}

TEST(Serialize, RoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "sdd_serialize_test.bin";
  {
    BinaryWriter writer{path};
    writer.write_magic("TESTMAG1", 3);
    writer.write_i64(-42);
    writer.write_f32(1.5F);
    writer.write_string("hello world");
    writer.write_vector(std::vector<float>{1.0F, 2.0F, 3.0F});
    writer.write_bool(true);
    writer.flush();
  }
  BinaryReader reader{path};
  reader.expect_magic("TESTMAG1", 3);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_FLOAT_EQ(reader.read_f32(), 1.5F);
  EXPECT_EQ(reader.read_string(), "hello world");
  EXPECT_EQ(reader.read_vector<float>(), (std::vector<float>{1.0F, 2.0F, 3.0F}));
  EXPECT_TRUE(reader.read_bool());
  std::filesystem::remove(path);
}

TEST(Serialize, BadMagicThrows) {
  const auto path = std::filesystem::temp_directory_path() / "sdd_magic_test.bin";
  {
    BinaryWriter writer{path};
    writer.write_magic("GOODMAG1", 1);
    writer.flush();
  }
  BinaryReader reader{path};
  EXPECT_THROW(reader.expect_magic("OTHERMAG", 1), SerializeError);
  std::filesystem::remove(path);
}

TEST(Serialize, VersionMismatchThrows) {
  const auto path = std::filesystem::temp_directory_path() / "sdd_version_test.bin";
  {
    BinaryWriter writer{path};
    writer.write_magic("GOODMAG1", 1);
    writer.flush();
  }
  BinaryReader reader{path};
  EXPECT_THROW(reader.expect_magic("GOODMAG1", 2), SerializeError);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(BinaryReader{"/nonexistent/path/file.bin"}, SerializeError);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool{2};
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool{0};
  // hardware_concurrency()-1 may be 0 on this machine; either way the range
  // must be covered exactly once.
  std::vector<int> hits(17, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool{1};
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RangeShorterThanThreadCountIsCoveredOnce) {
  ThreadPool pool{3};
  for (std::size_t n = 1; n <= 5; ++n) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(10, 10 + n, [&](std::size_t i) { hits[i - 10] += 1; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n=" << n;
  }
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRangeOnce) {
  ThreadPool pool{2};
  constexpr std::size_t kRange = 257;
  constexpr int kCalls = 200;
  const auto caller = [&](std::vector<std::atomic<int>>& hits) {
    for (int call = 0; call < kCalls; ++call) {
      pool.parallel_for(0, kRange, [&](std::size_t i) { hits[i] += 1; });
    }
  };
  std::vector<std::atomic<int>> a(kRange);
  std::vector<std::atomic<int>> b(kRange);
  std::thread other{[&] { caller(b); }};
  caller(a);
  other.join();
  for (std::size_t i = 0; i < kRange; ++i) {
    EXPECT_EQ(a[i].load(), kCalls) << i;
    EXPECT_EQ(b[i].load(), kCalls) << i;
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool{3};
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 33;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(0, kOuter, [&](std::size_t o) {
    pool.parallel_for(0, kInner, [&](std::size_t i) { hits[o * kInner + i] += 1; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Each index in turn throws: the caller's own chunk and the workers' chunks
// alike. The exception reaches the caller, and the next call on the same
// pool covers its range exactly once.
TEST(ThreadPool, ExceptionReachesTheCallerAndThePoolStaysUsable) {
  ThreadPool pool{3};
  constexpr std::size_t kRange = 64;
  for (std::size_t bad = 0; bad < kRange; bad += 7) {
    EXPECT_THROW(pool.parallel_for(0, kRange,
                                   [&](std::size_t i) {
                                     if (i == bad) throw std::runtime_error("chunk failed");
                                   }),
                 std::runtime_error)
        << "bad=" << bad;
    std::vector<std::atomic<int>> hits(kRange);
    pool.parallel_for(0, kRange, [&](std::size_t i) { hits[i] += 1; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "bad=" << bad;
  }
}

// Workers long parked, and workers mid-spin right after a job: the
// destructor wakes both at once instead of waiting for anything. The
// spinning case repeats, because destruction races each worker's last look
// at the finished job.
TEST(ThreadPool, DestructorReturnsPromptlyWithWorkersSpinningOrParked) {
  for (int round = 0; round < 200; ++round) {
    const bool parked = round == 0;
    auto pool = std::make_unique<ThreadPool>(3);
    std::atomic<int> sum{0};
    pool->parallel_for(0, 4, [&](std::size_t i) { sum += static_cast<int>(i); });
    ASSERT_EQ(sum.load(), 6);
    if (parked) std::this_thread::sleep_for(std::chrono::milliseconds{50});
    const auto start = std::chrono::steady_clock::now();
    pool.reset();
    ASSERT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds{1})
        << (parked ? "parked" : "spinning") << " round " << round;
  }
}

TEST(Table, AsciiAlignmentAndCells) {
  TablePrinter table{{"name", "value"}};
  table.add_row({"alpha", "1"});
  table.add_separator();
  table.add_row({"b", "22"});
  const std::string ascii = table.to_ascii();
  EXPECT_NE(ascii.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(ascii.find("| b     | 22    |"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  TablePrinter table{{"a", "b"}};
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, MarkdownFormat) {
  TablePrinter table{{"x"}};
  table.add_row({"1"});
  const std::string md = table.to_markdown();
  EXPECT_NE(md.find("| x |"), std::string::npos);
  EXPECT_NE(md.find("|---|"), std::string::npos);
}

TEST(Table, FloatFormatting) {
  EXPECT_EQ(format_float(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.163, 2), "16.30%");
}

TEST(Env, ParsesAndFallsBack) {
  ::setenv("SDD_TEST_INT", "42", 1);
  ::setenv("SDD_TEST_BAD", "xyz", 1);
  ::setenv("SDD_TEST_FLAG", "true", 1);
  EXPECT_EQ(env_int("SDD_TEST_INT", 7), 42);
  EXPECT_EQ(env_int("SDD_TEST_BAD", 7), 7);
  EXPECT_EQ(env_int("SDD_TEST_UNSET_NAME", 7), 7);
  EXPECT_TRUE(env_flag("SDD_TEST_FLAG", false));
  EXPECT_EQ(env_string("SDD_TEST_INT", ""), "42");
  ::unsetenv("SDD_TEST_INT");
  ::unsetenv("SDD_TEST_BAD");
  ::unsetenv("SDD_TEST_FLAG");
}

}  // namespace
}  // namespace sdd
