#include "util/supervisor.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/signals.hpp"

namespace sdd::supervisor {
namespace {

using Clock = std::chrono::steady_clock;

// Per-attempt liveness state shared between the stage thread and its
// watchdog. Stages nest (a supervised recover stage calls the supervised
// distill stage), so contexts form a per-thread stack; heartbeat() touches
// the innermost one and walks outward so an outer deadline still cancels a
// busy inner stage.
struct StageContext {
  const std::string* name = nullptr;
  std::atomic<Clock::rep> last_beat_ns{0};
  std::atomic<bool> cancelled{false};
  const char* cancel_reason = "";
  StageContext* parent = nullptr;

  // Watchdog parking / shutdown handshake, also used by
  // wait_for_cancellation.
  std::mutex mutex;
  std::condition_variable cv;
  bool finished = false;
};

thread_local StageContext* t_stage = nullptr;

Clock::rep now_ns() { return Clock::now().time_since_epoch().count(); }

void watchdog_loop(StageContext* ctx, const SupervisorConfig config,
                   const Clock::time_point started) {
  // Wake at a fraction of the tightest threshold so firing latency stays
  // small relative to the configured budget.
  std::int64_t tick_ms = 50;
  if (config.hang_ms > 0) tick_ms = std::min(tick_ms, std::max<std::int64_t>(1, config.hang_ms / 4));
  if (config.deadline_ms > 0) {
    tick_ms = std::min(tick_ms, std::max<std::int64_t>(1, config.deadline_ms / 4));
  }
  std::unique_lock<std::mutex> lock{ctx->mutex};
  while (!ctx->finished) {
    ctx->cv.wait_for(lock, std::chrono::milliseconds{tick_ms});
    if (ctx->finished || ctx->cancelled.load(std::memory_order_acquire)) break;
    const Clock::time_point now = Clock::now();
    if (config.deadline_ms > 0 &&
        now - started >= std::chrono::milliseconds{config.deadline_ms}) {
      ctx->cancel_reason = "deadline exceeded";
    } else if (config.hang_ms > 0) {
      const auto silence = std::chrono::nanoseconds{
          now.time_since_epoch().count() -
          ctx->last_beat_ns.load(std::memory_order_acquire)};
      if (silence >= std::chrono::milliseconds{config.hang_ms}) {
        ctx->cancel_reason = "heartbeat silence (hang)";
      } else {
        continue;
      }
    } else {
      continue;
    }
    log_warn("supervisor: watchdog cancelling stage '", *ctx->name, "': ",
             ctx->cancel_reason);
    ctx->cancelled.store(true, std::memory_order_release);
    ctx->cv.notify_all();  // release any wait_for_cancellation parkers
    break;
  }
}

[[noreturn]] void throw_cancelled(const StageContext& ctx) {
  throw Error(ErrorKind::kTimeout, "stage '" + *ctx.name +
                                       "' cancelled by watchdog: " +
                                       ctx.cancel_reason);
}

void backoff_sleep(const SupervisorConfig& config, std::chrono::milliseconds delay) {
  if (config.sleep_fn) {
    config.sleep_fn(delay);
  } else {
    std::this_thread::sleep_for(delay);
  }
}

}  // namespace

std::int64_t backoff_delay_ms(const SupervisorConfig& config,
                              std::string_view stage, std::int64_t attempt) {
  double base = static_cast<double>(config.backoff_ms);
  for (std::int64_t i = 0; i < attempt; ++i) base *= config.backoff_factor;
  const auto cap = static_cast<double>(config.backoff_cap_ms);
  if (base > cap) base = cap;
  // Deterministic jitter in [0, backoff_ms): hash of (seed, stage, attempt)
  // through SplitMix64, so the same stage retries on the same schedule every
  // run while distinct stages decorrelate.
  std::uint64_t mix = config.jitter_seed ^ fnv1a(stage) ^
                      (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(attempt + 1));
  const std::uint64_t bits = splitmix64(mix);
  const std::int64_t jitter =
      config.backoff_ms > 0
          ? static_cast<std::int64_t>(bits % static_cast<std::uint64_t>(config.backoff_ms))
          : 0;
  return static_cast<std::int64_t>(base) + jitter;
}

StageReport run_stage(const std::string& name, const SupervisorConfig& config,
                      const std::function<void()>& fn) {
  StageReport report;
  for (std::int64_t attempt = 0;; ++attempt) {
    ++report.attempts;
    StageContext ctx;
    ctx.name = &name;
    ctx.parent = t_stage;
    ctx.last_beat_ns.store(now_ns(), std::memory_order_release);

    std::thread watchdog;
    if (config.watchdog_enabled()) {
      watchdog = std::thread{watchdog_loop, &ctx, config, Clock::now()};
    }
    t_stage = &ctx;

    const auto finish = [&] {
      t_stage = ctx.parent;
      if (watchdog.joinable()) {
        {
          const std::lock_guard<std::mutex> lock{ctx.mutex};
          ctx.finished = true;
        }
        ctx.cv.notify_all();
        watchdog.join();
      }
    };

    try {
      fn();
      finish();
      return report;
    } catch (const Error& e) {
      finish();
      if (e.kind() == ErrorKind::kTimeout) ++report.timeouts;
      const bool out_of_budget = attempt >= config.retry_max;
      if (!e.retryable() || out_of_budget) {
        if (out_of_budget && e.retryable()) {
          log_error("supervisor: stage '", name, "' failed after ",
                    report.attempts, " attempt(s): ", e.what());
        }
        throw;
      }
      ++report.retries;
      const std::int64_t delay = backoff_delay_ms(config, name, attempt);
      log_warn("supervisor: stage '", name, "' attempt ", attempt + 1,
               " failed (", e.what(), "); retrying in ", delay, " ms");
      backoff_sleep(config, std::chrono::milliseconds{delay});
    } catch (...) {
      // Foreign exception types (FaultCrash, std::invalid_argument, ...) are
      // outside the taxonomy: never retried.
      finish();
      throw;
    }
  }
}

void heartbeat() {
  // Graceful-shutdown check first, before the null-ctx early return, so
  // unsupervised loops (CLI stages outside run_stage, fleet worker polling)
  // also honor SIGTERM/SIGINT. kInterrupted is non-retryable, so run_stage
  // propagates it straight out instead of burning retry budget.
  if (signals::interrupt_requested()) {
    throw Error(ErrorKind::kInterrupted,
                "shutdown requested by signal " +
                    std::to_string(signals::interrupt_signal()));
  }
  StageContext* ctx = t_stage;
  if (ctx == nullptr) return;
  const Clock::rep now = now_ns();
  for (StageContext* c = ctx; c != nullptr; c = c->parent) {
    if (c->cancelled.load(std::memory_order_acquire)) throw_cancelled(*c);
    c->last_beat_ns.store(now, std::memory_order_release);
  }
}

bool cancellation_requested() {
  for (StageContext* c = t_stage; c != nullptr; c = c->parent) {
    if (c->cancelled.load(std::memory_order_acquire)) return true;
  }
  return false;
}

bool wait_for_cancellation(std::chrono::milliseconds max_wait) {
  StageContext* ctx = t_stage;
  if (ctx == nullptr) {
    // No supervised stage: a plain bounded sleep keeps unsupervised test
    // runs finite.
    std::this_thread::sleep_for(max_wait);
    return false;
  }
  // Wait in short slices so a cancellation on an *outer* nested stage (whose
  // cv we are not parked on) is still observed promptly.
  const Clock::time_point end = Clock::now() + max_wait;
  std::unique_lock<std::mutex> lock{ctx->mutex};
  while (!cancellation_requested()) {
    const Clock::time_point now = Clock::now();
    if (now >= end) break;
    const auto slice = std::min<Clock::duration>(end - now,
                                                 std::chrono::milliseconds{20});
    ctx->cv.wait_for(lock, slice);
  }
  return cancellation_requested();
}

}  // namespace sdd::supervisor
