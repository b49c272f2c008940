// Semantics of the stage supervisor (util/supervisor) and the error taxonomy
// (util/error): retry-until-success, fail-fast on non-retryable kinds,
// deterministic backoff under a fake clock, deadline and hang watchdogs, and
// zero-machinery execution when supervision is disabled.
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "util/error.hpp"
#include "util/supervisor.hpp"

namespace sdd {
namespace {

using supervisor::SupervisorConfig;
using supervisor::StageReport;
using namespace std::chrono_literals;

SupervisorConfig fake_clock_config(std::vector<std::int64_t>* slept) {
  SupervisorConfig config;
  config.sleep_fn = [slept](std::chrono::milliseconds delay) {
    slept->push_back(delay.count());
  };
  return config;
}

TEST(ErrorTaxonomy, KindNamesAreStable) {
  EXPECT_EQ(error_kind_name(ErrorKind::kTransientIo), "transient_io");
  EXPECT_EQ(error_kind_name(ErrorKind::kCorruptArtifact), "corrupt_artifact");
  EXPECT_EQ(error_kind_name(ErrorKind::kNumericDivergence),
            "numeric_divergence");
  EXPECT_EQ(error_kind_name(ErrorKind::kTimeout), "timeout");
  EXPECT_EQ(error_kind_name(ErrorKind::kResourceExhausted),
            "resource_exhausted");
  EXPECT_EQ(error_kind_name(ErrorKind::kFatal), "fatal");
}

TEST(ErrorTaxonomy, RetryableClassification) {
  EXPECT_TRUE(error_kind_retryable(ErrorKind::kTransientIo));
  EXPECT_TRUE(error_kind_retryable(ErrorKind::kCorruptArtifact));
  EXPECT_TRUE(error_kind_retryable(ErrorKind::kTimeout));
  EXPECT_TRUE(error_kind_retryable(ErrorKind::kResourceExhausted));
  EXPECT_FALSE(error_kind_retryable(ErrorKind::kNumericDivergence));
  EXPECT_FALSE(error_kind_retryable(ErrorKind::kFatal));
}

TEST(ErrorTaxonomy, MessageCarriesKindPrefix) {
  const Error error{ErrorKind::kTransientIo, "disk went away"};
  EXPECT_EQ(error.kind(), ErrorKind::kTransientIo);
  EXPECT_TRUE(error.retryable());
  EXPECT_NE(std::string{error.what()}.find("transient_io"), std::string::npos);
  EXPECT_NE(std::string{error.what()}.find("disk went away"), std::string::npos);
}

TEST(SupervisorBackoff, DeterministicForSameInputs) {
  SupervisorConfig config;
  for (std::int64_t attempt = 0; attempt < 5; ++attempt) {
    const std::int64_t a = supervisor::backoff_delay_ms(config, "stage", attempt);
    const std::int64_t b = supervisor::backoff_delay_ms(config, "stage", attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;
  }
}

TEST(SupervisorBackoff, ExponentialBaseWithBoundedJitter) {
  SupervisorConfig config;
  config.backoff_ms = 100;
  config.backoff_factor = 2.0;
  config.backoff_cap_ms = 10'000;
  for (std::int64_t attempt = 0; attempt < 6; ++attempt) {
    const std::int64_t base = std::min<std::int64_t>(
        static_cast<std::int64_t>(100.0 * std::pow(2.0, attempt)), 10'000);
    const std::int64_t delay =
        supervisor::backoff_delay_ms(config, "pretrain", attempt);
    EXPECT_GE(delay, base) << "attempt " << attempt;
    EXPECT_LT(delay, base + config.backoff_ms) << "attempt " << attempt;
  }
}

TEST(SupervisorBackoff, CappedAtBackoffCap) {
  SupervisorConfig config;
  config.backoff_ms = 100;
  config.backoff_cap_ms = 300;
  const std::int64_t delay = supervisor::backoff_delay_ms(config, "s", 20);
  EXPECT_LT(delay, config.backoff_cap_ms + config.backoff_ms);
}

TEST(SupervisorBackoff, StagesDecorrelate) {
  // Same attempt, different stage names: the jitter should differ for at
  // least one of a handful of attempts (all-equal would mean the stage name
  // is ignored).
  SupervisorConfig config;
  bool any_different = false;
  for (std::int64_t attempt = 0; attempt < 8 && !any_different; ++attempt) {
    any_different = supervisor::backoff_delay_ms(config, "prune", attempt) !=
                    supervisor::backoff_delay_ms(config, "distill", attempt);
  }
  EXPECT_TRUE(any_different);
}

TEST(Supervisor, RetryUntilSuccess) {
  std::vector<std::int64_t> slept;
  SupervisorConfig config = fake_clock_config(&slept);
  config.retry_max = 5;
  int calls = 0;
  const StageReport report =
      supervisor::run_stage("flaky", config, [&] {
        if (++calls < 3) throw Error{ErrorKind::kTransientIo, "flake"};
      });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(report.timeouts, 0);
  // The recorded fake-clock sleeps must match the pure backoff schedule.
  ASSERT_EQ(slept.size(), 2U);
  EXPECT_EQ(slept[0], supervisor::backoff_delay_ms(config, "flaky", 0));
  EXPECT_EQ(slept[1], supervisor::backoff_delay_ms(config, "flaky", 1));
}

TEST(Supervisor, NonRetryableFailsFast) {
  std::vector<std::int64_t> slept;
  SupervisorConfig config = fake_clock_config(&slept);
  int calls = 0;
  EXPECT_THROW(supervisor::run_stage("doomed", config,
                                     [&] {
                                       ++calls;
                                       throw Error{ErrorKind::kFatal, "broken"};
                                     }),
               Error);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());
}

TEST(Supervisor, ForeignExceptionsAreNotRetried) {
  std::vector<std::int64_t> slept;
  SupervisorConfig config = fake_clock_config(&slept);
  int calls = 0;
  EXPECT_THROW(supervisor::run_stage("foreign", config,
                                     [&] {
                                       ++calls;
                                       throw std::invalid_argument{"not ours"};
                                     }),
               std::invalid_argument);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());
}

TEST(Supervisor, RetriesExhaustedRethrowsLastError) {
  std::vector<std::int64_t> slept;
  SupervisorConfig config = fake_clock_config(&slept);
  config.retry_max = 2;
  int calls = 0;
  try {
    supervisor::run_stage("always-bad", config, [&] {
      ++calls;
      throw Error{ErrorKind::kTransientIo, "still down"};
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTransientIo);
  }
  EXPECT_EQ(calls, 3);  // first attempt + retry_max retries
  EXPECT_EQ(slept.size(), 2U);
}

TEST(Supervisor, SupervisedReturnsResult) {
  SupervisorConfig config;
  const int value =
      supervisor::supervised("answer", config, [] { return 42; });
  EXPECT_EQ(value, 42);
}

TEST(Supervisor, InlineExecutionWhenWatchdogDisabled) {
  // With deadline_ms == hang_ms == 0 the body runs on the caller's thread
  // and no watchdog machinery is armed.
  SupervisorConfig config;
  ASSERT_FALSE(config.watchdog_enabled());
  const auto caller = std::this_thread::get_id();
  supervisor::run_stage("inline", config, [&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    supervisor::heartbeat();  // must be a no-op, not a throw
    EXPECT_FALSE(supervisor::cancellation_requested());
  });
}

TEST(Supervisor, HeartbeatOutsideStageIsNoop) {
  EXPECT_NO_THROW(supervisor::heartbeat());
  EXPECT_FALSE(supervisor::cancellation_requested());
  // Bounded sleep fallback, not an infinite park.
  EXPECT_FALSE(supervisor::wait_for_cancellation(1ms));
}

TEST(Supervisor, DeadlineExpiryCancelsStage) {
  SupervisorConfig config;
  config.retry_max = 0;
  config.deadline_ms = 40;
  try {
    supervisor::run_stage("slow", config, [] {
      // Heartbeat frequently: deadline must fire even for a live stage.
      const auto failsafe = std::chrono::steady_clock::now() + 5s;
      while (std::chrono::steady_clock::now() < failsafe) {
        supervisor::heartbeat();
        std::this_thread::sleep_for(1ms);
      }
      FAIL() << "watchdog never cancelled the stage";
    });
    FAIL() << "expected timeout Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTimeout);
    EXPECT_NE(std::string{e.what()}.find("deadline"), std::string::npos);
  }
}

TEST(Supervisor, WatchdogFiresOnStalledStageThenRetrySucceeds) {
  std::vector<std::int64_t> slept;
  SupervisorConfig config = fake_clock_config(&slept);
  config.retry_max = 1;
  config.hang_ms = 40;
  int calls = 0;
  const StageReport report = supervisor::run_stage("stall", config, [&] {
    if (++calls == 1) {
      // Simulate a hang the way the fault injector does: park silently until
      // the watchdog notices the missing heartbeats.
      const bool cancelled = supervisor::wait_for_cancellation(5s);
      EXPECT_TRUE(cancelled);
      supervisor::heartbeat();  // observes the cancellation and throws
      FAIL() << "heartbeat did not observe cancellation";
    }
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.retries, 1);
  EXPECT_EQ(report.timeouts, 1);
}

TEST(Supervisor, HeartbeatsKeepHangWatchdogQuiet) {
  SupervisorConfig config;
  config.retry_max = 0;
  config.hang_ms = 60;
  int ticks = 0;
  const StageReport report = supervisor::run_stage("live", config, [&] {
    // Run well past hang_ms total, heartbeating every ~2ms: never cancelled.
    for (; ticks < 60; ++ticks) {
      supervisor::heartbeat();
      std::this_thread::sleep_for(2ms);
    }
  });
  EXPECT_EQ(ticks, 60);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_EQ(report.timeouts, 0);
}

TEST(Supervisor, NestedStagesRestoreOuterContext) {
  SupervisorConfig config;
  supervisor::run_stage("outer", config, [&] {
    supervisor::heartbeat();
    supervisor::run_stage("inner", config, [&] { supervisor::heartbeat(); });
    // Back on the outer stage: liveness API still functional, no cancel.
    supervisor::heartbeat();
    EXPECT_FALSE(supervisor::cancellation_requested());
  });
  EXPECT_NO_THROW(supervisor::heartbeat());
}

TEST(Supervisor, FromEnvDefaults) {
  // Guard against accidental default drift; the env overrides are covered by
  // ConfigEnv.EveryBoundNameSetsItsField.
  const SupervisorConfig config = core::PipelineConfig::standard().supervise;
  EXPECT_EQ(config.retry_max, 3);
  EXPECT_EQ(config.backoff_ms, 100);
  EXPECT_EQ(config.deadline_ms, 0);
  EXPECT_EQ(config.hang_ms, 0);
  EXPECT_FALSE(config.watchdog_enabled());
}

}  // namespace
}  // namespace sdd
