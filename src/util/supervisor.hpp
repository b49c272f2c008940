// Stage supervision: bounded retries with deterministic exponential backoff,
// a per-stage deadline, and a heartbeat-based hang watchdog.
//
// run_stage(name, config, fn) executes fn on the calling thread. When fn
// throws an Error with a retryable kind (see util/error.hpp) the supervisor
// sleeps for a deterministic backoff and runs fn again, up to
// config.retry_max retries. Non-retryable errors and foreign exception types
// (including fault::FaultCrash) propagate immediately.
//
// Liveness is cooperative: supervised code calls heartbeat() at natural
// progress points (training loops do so once per step). When deadline_ms or
// hang_ms is set, run_stage spawns a watchdog thread that requests
// cancellation once the stage has run past its deadline or been silent past
// the hang threshold; the next heartbeat() (or a fault-injected hang parked
// in wait_for_cancellation) observes the request and throws
// Error{kTimeout}, which the retry loop treats like any other retryable
// failure. With both thresholds at 0 no thread is spawned and heartbeat() is
// a single thread-local load — supervision is free when disabled.
//
// Env knobs: PipelineConfig::standard() binds SDD_RETRY_MAX, SDD_BACKOFF_MS,
// SDD_STAGE_DEADLINE_SEC and SDD_STAGE_HANG_SEC (core::kPipelineEnv).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/config.hpp"
#include "util/error.hpp"

namespace sdd::supervisor {

#define SDD_SUPERVISOR_FIELDS(X)                                              \
  X(std::int64_t, retry_max, 3, kRun, "retries after the first attempt")    \
  X(std::int64_t, backoff_ms, 100, kRun, "base delay before the first retry") \
  X(double, backoff_factor, 2.0, kRun, "exponential growth per retry")      \
  X(std::int64_t, backoff_cap_ms, 10'000, kRun, "backoff ceiling")          \
  X(std::int64_t, deadline_ms, 0, kRun, "whole-stage wall-clock budget; 0 = off") \
  X(std::int64_t, hang_ms, 0, kRun, "max heartbeat silence; 0 = off")       \
  X(std::uint64_t, jitter_seed, 0x5DDB0FF5ULL, kRun, "backoff jitter seed")

struct SupervisorConfig {
  SDD_CONFIG_FIELDS(SDD_SUPERVISOR_FIELDS)

  // Test seam: invoked for backoff waits instead of a real sleep when set.
  std::function<void(std::chrono::milliseconds)> sleep_fn{};

  bool watchdog_enabled() const { return deadline_ms > 0 || hang_ms > 0; }
};

// Deterministic backoff for the given (stage, attempt): exponential base
// delay plus a jitter in [0, backoff_ms) derived from hashing the stage name,
// the attempt index, and jitter_seed. Same inputs always give the same delay.
std::int64_t backoff_delay_ms(const SupervisorConfig& config,
                              std::string_view stage, std::int64_t attempt);

// Outcome bookkeeping for observability and tests.
struct StageReport {
  std::int64_t attempts = 0;   // fn invocations (>= 1 on success)
  std::int64_t retries = 0;    // attempts - 1
  std::int64_t timeouts = 0;   // watchdog/deadline cancellations observed
};

// Runs fn under the supervision policy described above. Rethrows fn's final
// error when retries are exhausted or the error is not retryable.
StageReport run_stage(const std::string& name, const SupervisorConfig& config,
                      const std::function<void()>& fn);

// Convenience wrapper returning fn's result.
template <typename F>
auto supervised(const std::string& name, const SupervisorConfig& config, F&& fn)
    -> decltype(fn()) {
  using Result = decltype(fn());
  if constexpr (std::is_void_v<Result>) {
    run_stage(name, config, [&fn] { fn(); });
  } else {
    std::optional<Result> result;
    run_stage(name, config, [&] { result.emplace(fn()); });
    return std::move(*result);
  }
}

// ---- in-stage liveness API -------------------------------------------------

// Marks the supervised stage on this thread as alive. Throws Error{kTimeout}
// if the watchdog has requested cancellation. No-op outside a supervised
// stage or when no watchdog is armed.
void heartbeat();

// True when the innermost supervised stage on this thread has been asked to
// stop (deadline or hang watchdog fired).
bool cancellation_requested();

// Parks the calling thread until the current stage is cancelled or max_wait
// elapses; returns true when cancelled. Used by the fault injector's
// hang_at_step to simulate a hang the watchdog can actually recover from.
bool wait_for_cancellation(std::chrono::milliseconds max_wait);

}  // namespace sdd::supervisor
