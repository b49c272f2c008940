// Unit tests of the benchmark's measurement rules (bench_stats.hpp).
#include <gtest/gtest.h>

#include <map>

#include "bench_stats.hpp"

namespace sb = sdd_bench;

namespace {

sb::Traffic chat_traffic() {
  sb::Traffic traffic;
  traffic.vocab = 200;
  traffic.variants = {"full", "p4"};
  return traffic;
}

bool same_request(const sb::GeneratedRequest& a, const sb::GeneratedRequest& b) {
  return a.send_us == b.send_us && a.prompt == b.prompt &&
         a.max_new_tokens == b.max_new_tokens && a.temperature == b.temperature &&
         a.seed == b.seed && a.variant == b.variant;
}

}  // namespace

TEST(BenchPercentile, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(sb::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(sb::percentile({7.0}, 99.0), 7.0);
  EXPECT_DOUBLE_EQ(sb::percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(sb::percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sb::percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0), 5.0);
  std::vector<double> hundred_and_one;
  for (int i = 0; i <= 100; ++i) hundred_and_one.push_back(i);
  EXPECT_DOUBLE_EQ(sb::percentile(hundred_and_one, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(sb::percentile({0.0, 10.0}, 25.0), 2.5);
}

TEST(BenchPercentile, SupportedPercentileNeedsTenSamplesBeyond) {
  EXPECT_FALSE(sb::supported_percentile(0).has_value());
  EXPECT_FALSE(sb::supported_percentile(19).has_value());
  EXPECT_EQ(sb::supported_percentile(20), 50.0);
  EXPECT_EQ(sb::supported_percentile(99), 50.0);
  EXPECT_EQ(sb::supported_percentile(100), 90.0);
  EXPECT_EQ(sb::supported_percentile(999), 90.0);
  EXPECT_EQ(sb::supported_percentile(1000), 99.0);
  EXPECT_EQ(sb::supported_percentile(10000), 99.9);
}

TEST(BenchSchedule, SameSeedGivesIdenticalSchedule) {
  const auto a = sb::open_loop_schedule(chat_traffic(), 42, 150.0, 2.0);
  const auto b = sb::open_loop_schedule(chat_traffic(), 42, 150.0, 2.0);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 200U);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(same_request(a[i], b[i])) << i;
}

TEST(BenchSchedule, DifferentSeedChangesTimesAndBodies) {
  const auto a = sb::open_loop_schedule(chat_traffic(), 1, 150.0, 2.0);
  const auto b = sb::open_loop_schedule(chat_traffic(), 2, 150.0, 2.0);
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t times_differ = 0;
  std::size_t prompts_differ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    times_differ += a[i].send_us != b[i].send_us ? 1 : 0;
    prompts_differ += a[i].prompt != b[i].prompt ? 1 : 0;
  }
  EXPECT_GT(times_differ, n * 9 / 10);
  EXPECT_GT(prompts_differ, n * 9 / 10);
}

TEST(BenchSchedule, ArrivalsFollowTheRateAndStayInTheWindow) {
  const auto schedule = sb::open_loop_schedule(chat_traffic(), 7, 150.0, 10.0);
  EXPECT_NEAR(static_cast<double>(schedule.size()), 1500.0, 150.0);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(schedule[i - 1].send_us, schedule[i].send_us);
  }
  EXPECT_LT(schedule.back().send_us, 10'000'000);
}

TEST(BenchSchedule, DecksKeepTheRequestMixExact) {
  sb::Traffic traffic = chat_traffic();
  traffic.prompt_min = 96;
  traffic.prompt_max = 128;
  traffic.shared_prefix = 64;
  sb::RequestStream stream{traffic, 3, 1};
  const sb::GeneratedRequest first = stream.next();
  std::int64_t sampled = 0;
  std::int64_t pinned_full = 0;
  std::map<std::int64_t, int> lengths;
  constexpr int kCount = 33 * 20;  // whole passes of every deck
  for (int i = 0; i < kCount; ++i) {
    const sb::GeneratedRequest r = i == 0 ? first : stream.next();
    ASSERT_GE(r.prompt.size(), 96U);
    ASSERT_LE(r.prompt.size(), 128U);
    EXPECT_TRUE(std::equal(first.prompt.begin(), first.prompt.begin() + 64,
                           r.prompt.begin()));
    EXPECT_GE(r.max_new_tokens, traffic.out_min);
    EXPECT_LE(r.max_new_tokens, traffic.out_max);
    sampled += r.temperature > 0.0F ? 1 : 0;
    pinned_full += r.variant == "full" ? 1 : 0;
    ++lengths[static_cast<std::int64_t>(r.prompt.size())];
  }
  EXPECT_EQ(sampled, kCount / 4);
  EXPECT_EQ(pinned_full, kCount / 2);
  for (const auto& [length, count] : lengths) EXPECT_EQ(count, kCount / 33) << length;
}

TEST(BenchSlo, NonCompletedRequestsAreMisses) {
  const std::vector<sb::Outcome> outcomes{
      {true, 10.0},   // met
      {true, 50.0},   // met: the limit is inclusive
      {true, 50.5},   // late
      {false, 1.0},   // shed: fast, still a miss
      {false, 0.0},   // failed
      {false, 20.0},  // timed out
      {true, 49.0},   // met
      {true, 1.0},    // met
  };
  EXPECT_DOUBLE_EQ(sb::slo_attain(outcomes, 50.0), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(sb::slo_attain({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(sb::slo_attain({{false, 0.0}}, 50.0), 0.0);
}

TEST(BenchSpans, SelfTimeCountsOverlappingChildrenOnce) {
  const std::vector<sb::Span> spans{
      {"request", 0, 100, -1, 1, false},
      {"submit", 10, 20, 0, 1, false},
      {"queue", 15, 40, 0, 1, true},    // overlaps submit by 5
      {"decode", 40, 120, 0, 1, true},  // sticks out of the parent by 20
      {"inner", 50, 60, 3, 1, false},   // grandchild: not the request's child
  };
  const std::vector<std::int64_t> self = sb::self_times_us(spans);
  EXPECT_EQ(self[0], 100 - 90);  // covered [10, 100)
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 25);
  EXPECT_EQ(self[3], 80 - 10);
  EXPECT_EQ(self[4], 10);
}

TEST(BenchSpans, NestedAndDisjointChildren) {
  const std::vector<sb::Span> spans{
      {"decode_step", 0, 50, -1, -1, false},
      {"block.0.attn", 5, 10, 0, -1, false},
      {"block.0.ffn", 10, 20, 0, -1, false},
      {"block.1.attn", 30, 32, 0, -1, false},
      {"block.1.attn", 31, 35, 0, -1, false},  // contained overlap
  };
  EXPECT_EQ(sb::self_times_us(spans)[0], 50 - (5 + 10 + 5));
}

TEST(BenchTracer, DisabledRecordsNothing) {
  sb::Tracer off{false};
  {
    const sb::Scope scope{off, "x"};
    EXPECT_EQ(scope.id(), -1);
  }
  EXPECT_EQ(off.add({"y", 0, 1, -1, -1, false}), -1);
  EXPECT_TRUE(off.spans().empty());

  sb::Tracer on{true};
  {
    const sb::Scope parent{on, "parent"};
    const sb::Scope child{on, "child", parent.id(), 3};
  }
  ASSERT_EQ(on.spans().size(), 2U);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[1].request, 3);
  EXPECT_LE(on.spans()[0].start_us, on.spans()[1].start_us);
  EXPECT_GE(on.spans()[0].end_us, on.spans()[1].end_us);
}
