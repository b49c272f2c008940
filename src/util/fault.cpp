#include "util/fault.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/supervisor.hpp"

namespace sdd::fault {
namespace {

struct State {
  FaultConfig config;
  std::atomic<bool> armed{false};
  std::atomic<std::int64_t> train_steps{0};
  std::atomic<std::int64_t> io_commits{0};
  std::atomic<std::int64_t> loss_checks{0};
  std::atomic<std::int64_t> allocs{0};
  std::atomic<std::int64_t> decode_tokens{0};
  std::atomic<std::int64_t> logit_checks{0};
  std::atomic<std::int64_t> decode_passes{0};
  std::atomic<std::int64_t> fleet_claims{0};
  std::atomic<std::int64_t> fleet_completions{0};
  std::atomic<std::int64_t> replica_dispatches{0};
  std::atomic<std::int64_t> replica_requests{0};
  std::atomic<bool> replica_wedge_flag{false};
  std::atomic<bool> torn_frame_fired{false};
  std::atomic<std::int64_t> draft_logit_checks{0};
  std::mutex rng_mutex;
  Rng rng{0};
};

State& state() {
  static State s;
  return s;
}

// SDD_FAULT is read once, on the first hook that fires; configure()/reset()
// preempt it.
std::once_flag g_env_once;

void init_from_env() {
  std::call_once(g_env_once, [] {
    const char* spec = std::getenv("SDD_FAULT");
    if (spec == nullptr || *spec == '\0') return;
    State& s = state();
    // A programmatic configure() beats the environment.
    if (s.armed.load(std::memory_order_acquire)) return;
    try {
      const FaultConfig config = parse_fault_spec(spec);
      s.config = config;
      s.rng.reseed(config.seed);
      s.armed.store(config.any(), std::memory_order_release);
      if (config.any()) log_warn("fault: armed from SDD_FAULT=", spec);
    } catch (const std::invalid_argument& e) {
      // A typo'd spec must not silently run the soak fault-free: fail fast
      // with an actionable message instead.
      log_error("fault: malformed SDD_FAULT='", spec, "': ", e.what(),
                "\nfault: valid directives: io_fail:p=P, truncate_write, "
                "crash_at_step:N, crash_at_io:N, hang_at_step:N, "
                "nan_at_step:N, slow_io:ms=M, alloc_fail:at=N, "
                "hang_decode:N, nan_decode:N, decode_pass_fail:N, "
                "worker_kill9:at=N, "
                "worker_stall:N, claim_race, orch_crash:N, "
                "replica_fail:at=N, replica_fail_n:K, replica_idx:I, "
                "replica_slow:MS, breaker_flap, replica_kill9:at=N, "
                "replica_wedge:N, ipc_torn_frame, spec_reject_storm[:p=P], "
                "draft_nan:N, mode:throw|exit, seed:N (comma-combined)");
      std::exit(64);  // EX_USAGE
    }
  });
}

[[noreturn]] void crash(const char* where, std::int64_t count) {
  State& s = state();
  if (s.config.mode == CrashMode::kThrow) {
    throw FaultCrash(std::string{"injected crash at "} + where + " #" +
                     std::to_string(count));
  }
  log_error("fault: injected crash at ", where, " #", count, " — _Exit(137)");
  std::_Exit(137);  // no atexit/flush, like SIGKILL
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

std::int64_t parse_int(const std::string& text, const std::string& directive) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault: bad integer '" + text + "' in '" +
                                directive + "'");
  }
}

double parse_prob(const std::string& text, const std::string& directive) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size() || value < 0.0 || value > 1.0) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("fault: bad probability '" + text + "' in '" +
                                directive + "'");
  }
}

}  // namespace

FaultConfig parse_fault_spec(const std::string& spec) {
  FaultConfig config;
  for (const std::string& directive : split(spec, ',')) {
    if (directive.empty()) continue;
    const std::size_t colon = directive.find(':');
    const std::string name = directive.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : directive.substr(colon + 1);
    if (name == "io_fail") {
      // accepts "io_fail:p=0.05" and "io_fail:0.05"
      const std::string p = arg.rfind("p=", 0) == 0 ? arg.substr(2) : arg;
      config.io_fail_p = parse_prob(p, directive);
    } else if (name == "truncate_write") {
      config.truncate_write = true;
    } else if (name == "crash_at_step") {
      config.crash_at_step = parse_int(arg, directive);
    } else if (name == "crash_at_io") {
      config.crash_at_io = parse_int(arg, directive);
    } else if (name == "hang_at_step") {
      config.hang_at_step = parse_int(arg, directive);
    } else if (name == "nan_at_step") {
      config.nan_at_step = parse_int(arg, directive);
    } else if (name == "slow_io") {
      // accepts "slow_io:ms=20" and "slow_io:20"
      const std::string ms = arg.rfind("ms=", 0) == 0 ? arg.substr(3) : arg;
      config.slow_io_ms = parse_int(ms, directive);
      if (config.slow_io_ms < 0) {
        throw std::invalid_argument("fault: negative delay in '" + directive + "'");
      }
    } else if (name == "alloc_fail") {
      // accepts "alloc_fail:at=3" and "alloc_fail:3"
      const std::string at = arg.rfind("at=", 0) == 0 ? arg.substr(3) : arg;
      config.alloc_fail_at = parse_int(at, directive);
    } else if (name == "hang_decode") {
      config.hang_decode = parse_int(arg, directive);
    } else if (name == "nan_decode") {
      config.nan_decode = parse_int(arg, directive);
    } else if (name == "decode_pass_fail") {
      config.decode_pass_fail = parse_int(arg, directive);
    } else if (name == "worker_kill9") {
      // accepts "worker_kill9:at=1" and "worker_kill9:1"
      const std::string at = arg.rfind("at=", 0) == 0 ? arg.substr(3) : arg;
      config.worker_kill9_at = parse_int(at, directive);
    } else if (name == "worker_stall") {
      const std::string at = arg.rfind("at=", 0) == 0 ? arg.substr(3) : arg;
      config.worker_stall_at = parse_int(at, directive);
    } else if (name == "claim_race") {
      config.claim_race = true;
    } else if (name == "orch_crash") {
      const std::string at = arg.rfind("at=", 0) == 0 ? arg.substr(3) : arg;
      config.orch_crash_at = parse_int(at, directive);
    } else if (name == "replica_fail") {
      // accepts "replica_fail:at=2" and "replica_fail:2"
      const std::string at = arg.rfind("at=", 0) == 0 ? arg.substr(3) : arg;
      config.replica_fail_at = parse_int(at, directive);
    } else if (name == "replica_fail_n") {
      config.replica_fail_count = parse_int(arg, directive);
      if (config.replica_fail_count < 1) {
        throw std::invalid_argument("fault: bad window in '" + directive + "'");
      }
    } else if (name == "replica_idx") {
      config.replica_fault_index = parse_int(arg, directive);
      if (config.replica_fault_index < 0) {
        throw std::invalid_argument("fault: bad index in '" + directive + "'");
      }
    } else if (name == "replica_slow") {
      // accepts "replica_slow:ms=30" and "replica_slow:30"
      const std::string ms = arg.rfind("ms=", 0) == 0 ? arg.substr(3) : arg;
      config.replica_slow_ms = parse_int(ms, directive);
      if (config.replica_slow_ms < 0) {
        throw std::invalid_argument("fault: negative delay in '" + directive + "'");
      }
    } else if (name == "breaker_flap") {
      config.breaker_flap = true;
    } else if (name == "replica_kill9") {
      // accepts "replica_kill9:at=2" and "replica_kill9:2"
      const std::string at = arg.rfind("at=", 0) == 0 ? arg.substr(3) : arg;
      config.replica_kill9_at = parse_int(at, directive);
    } else if (name == "replica_wedge") {
      const std::string at = arg.rfind("at=", 0) == 0 ? arg.substr(3) : arg;
      config.replica_wedge_at = parse_int(at, directive);
    } else if (name == "ipc_torn_frame") {
      config.ipc_torn_frame = true;
    } else if (name == "spec_reject_storm") {
      // accepts bare "spec_reject_storm" (always corrupt),
      // "spec_reject_storm:p=0.5", and "spec_reject_storm:0.5"
      if (arg.empty()) {
        config.spec_reject_p = 1.0;
      } else {
        const std::string p = arg.rfind("p=", 0) == 0 ? arg.substr(2) : arg;
        config.spec_reject_p = parse_prob(p, directive);
      }
    } else if (name == "draft_nan") {
      config.draft_nan = parse_int(arg, directive);
    } else if (name == "hang_cap") {
      config.hang_cap_ms = parse_int(arg, directive);
    } else if (name == "mode") {
      if (arg == "exit") {
        config.mode = CrashMode::kExit;
      } else if (arg == "throw") {
        config.mode = CrashMode::kThrow;
      } else {
        throw std::invalid_argument("fault: unknown mode '" + arg + "'");
      }
    } else if (name == "seed") {
      config.seed = static_cast<std::uint64_t>(parse_int(arg, directive));
    } else {
      throw std::invalid_argument("fault: unknown directive '" + directive + "'");
    }
  }
  return config;
}

void configure(const FaultConfig& config) {
  State& s = state();
  s.config = config;
  s.train_steps.store(0, std::memory_order_relaxed);
  s.io_commits.store(0, std::memory_order_relaxed);
  s.loss_checks.store(0, std::memory_order_relaxed);
  s.allocs.store(0, std::memory_order_relaxed);
  s.decode_tokens.store(0, std::memory_order_relaxed);
  s.logit_checks.store(0, std::memory_order_relaxed);
  s.decode_passes.store(0, std::memory_order_relaxed);
  s.fleet_claims.store(0, std::memory_order_relaxed);
  s.fleet_completions.store(0, std::memory_order_relaxed);
  s.replica_dispatches.store(0, std::memory_order_relaxed);
  s.replica_requests.store(0, std::memory_order_relaxed);
  s.replica_wedge_flag.store(false, std::memory_order_relaxed);
  s.torn_frame_fired.store(false, std::memory_order_relaxed);
  s.draft_logit_checks.store(0, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock{s.rng_mutex};
    s.rng.reseed(config.seed);
  }
  s.armed.store(config.any(), std::memory_order_release);
}

void reset() { configure(FaultConfig{}); }

bool enabled() {
  init_from_env();
  return state().armed.load(std::memory_order_acquire);
}

void on_train_step() {
  if (!enabled()) return;
  State& s = state();
  const std::int64_t step = s.train_steps.fetch_add(1, std::memory_order_relaxed);
  if (s.config.crash_at_step >= 0 && step == s.config.crash_at_step) {
    crash("train_step", step);
  }
  if (s.config.hang_at_step >= 0 && step == s.config.hang_at_step) {
    log_warn("fault: hanging at train step ", step,
             " (waiting for watchdog cancellation)");
    const bool cancelled = supervisor::wait_for_cancellation(
        std::chrono::milliseconds{s.config.hang_cap_ms});
    throw Error(ErrorKind::kTimeout,
                cancelled ? "injected hang aborted by watchdog at step " +
                                std::to_string(step)
                          : "injected hang expired unwatched at step " +
                                std::to_string(step));
  }
}

float poison_loss(float loss) {
  if (!enabled()) return loss;
  State& s = state();
  if (s.config.nan_at_step < 0) return loss;
  const std::int64_t check = s.loss_checks.fetch_add(1, std::memory_order_relaxed);
  if (check != s.config.nan_at_step) return loss;
  log_warn("fault: poisoning loss with NaN at loss check ", check);
  return std::numeric_limits<float>::quiet_NaN();
}

bool should_fail_io(const std::filesystem::path& path) {
  if (!enabled()) return false;
  State& s = state();
  if (s.config.io_fail_p <= 0.0) return false;
  bool fail;
  {
    const std::lock_guard<std::mutex> lock{s.rng_mutex};
    fail = s.rng.bernoulli(s.config.io_fail_p);
  }
  if (fail) log_warn("fault: injected io failure for ", path.string());
  return fail;
}

bool should_truncate_write(const std::filesystem::path& path) {
  if (!enabled()) return false;
  State& s = state();
  if (!s.config.truncate_write) return false;
  log_warn("fault: tearing write of ", path.string());
  return true;
}

void on_io_commit(const std::filesystem::path& path) {
  if (!enabled()) return;
  State& s = state();
  const std::int64_t commit = s.io_commits.fetch_add(1, std::memory_order_relaxed);
  if (s.config.crash_at_io >= 0 && commit == s.config.crash_at_io) {
    log_error("fault: crashing during commit of ", path.string());
    crash("io_commit", commit);
  }
}

void io_delay(const std::filesystem::path& path) {
  if (!enabled()) return;
  State& s = state();
  if (s.config.slow_io_ms <= 0) return;
  log_debug("fault: delaying commit of ", path.string(), " by ",
            s.config.slow_io_ms, " ms");
  std::this_thread::sleep_for(std::chrono::milliseconds{s.config.slow_io_ms});
}

void on_alloc(std::size_t bytes) {
  if (!enabled()) return;
  State& s = state();
  if (s.config.alloc_fail_at < 0) return;
  const std::int64_t alloc = s.allocs.fetch_add(1, std::memory_order_relaxed);
  if (alloc != s.config.alloc_fail_at) return;
  log_warn("fault: failing guarded allocation #", alloc, " (", bytes, " bytes)");
  throw Error(ErrorKind::kResourceExhausted,
              "injected allocation failure at guarded allocation #" +
                  std::to_string(alloc) + " (" + std::to_string(bytes) +
                  " bytes)");
}

void on_decode_token() {
  if (!enabled()) return;
  State& s = state();
  if (s.config.hang_decode < 0) return;
  const std::int64_t token =
      s.decode_tokens.fetch_add(1, std::memory_order_relaxed);
  if (token != s.config.hang_decode) return;
  log_warn("fault: hanging at decode token ", token,
           " (waiting for watchdog cancellation)");
  const bool cancelled = supervisor::wait_for_cancellation(
      std::chrono::milliseconds{s.config.hang_cap_ms});
  throw Error(ErrorKind::kTimeout,
              cancelled ? "injected decode hang aborted by watchdog at token " +
                              std::to_string(token)
                        : "injected decode hang expired unwatched at token " +
                              std::to_string(token));
}

bool should_poison_logits() {
  if (!enabled()) return false;
  State& s = state();
  if (s.config.nan_decode < 0) return false;
  const std::int64_t check =
      s.logit_checks.fetch_add(1, std::memory_order_relaxed);
  if (check != s.config.nan_decode) return false;
  log_warn("fault: poisoning decode logits with NaN at token ", check);
  return true;
}

void on_decode_pass() {
  if (!enabled()) return;
  State& s = state();
  if (s.config.decode_pass_fail < 0) return;
  const std::int64_t pass = s.decode_passes.fetch_add(1, std::memory_order_relaxed);
  if (pass != s.config.decode_pass_fail) return;
  log_warn("fault: failing batched decode pass ", pass);
  throw Error(ErrorKind::kResourceExhausted,
              "injected batched decode pass failure at pass " + std::to_string(pass));
}

namespace {

// O_EXCL marker under the fleet run directory: the first process to create it
// wins, so a fleet-level fault fires at most once per run even though every
// respawned worker inherits the same SDD_FAULT environment.
bool try_create_marker(const std::filesystem::path& marker) {
  const int fd =
      ::open(marker.string().c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

}  // namespace

void on_fleet_claim(const std::filesystem::path& fleet_dir) {
  if (!enabled()) return;
  State& s = state();
  if (s.config.worker_kill9_at < 0 && s.config.worker_stall_at < 0) return;
  const std::int64_t claim =
      s.fleet_claims.fetch_add(1, std::memory_order_relaxed);
  if (s.config.worker_kill9_at >= 0 && claim == s.config.worker_kill9_at &&
      try_create_marker(fleet_dir / ".fault_worker_kill9")) {
    if (s.config.mode == CrashMode::kThrow) {
      throw FaultCrash("injected worker kill -9 at fleet claim #" +
                       std::to_string(claim));
    }
    log_error("fault: SIGKILLing worker at fleet claim #", claim);
    ::raise(SIGKILL);
    std::_Exit(137);  // unreachable backstop
  }
  if (s.config.worker_stall_at >= 0 && claim == s.config.worker_stall_at &&
      try_create_marker(fleet_dir / ".fault_worker_stall")) {
    log_warn("fault: worker going lease-silent at fleet claim #", claim,
             " (waiting for orchestrator SIGKILL, cap ", s.config.hang_cap_ms,
             " ms)");
    std::this_thread::sleep_for(
        std::chrono::milliseconds{s.config.hang_cap_ms});
    if (s.config.mode == CrashMode::kThrow) {
      throw FaultCrash("injected worker stall expired unkilled at claim #" +
                       std::to_string(claim));
    }
    log_error("fault: stalled worker outlived hang cap — _Exit(137)");
    std::_Exit(137);
  }
}

bool claim_race_armed() {
  if (!enabled()) return false;
  return state().config.claim_race;
}

void on_fleet_completion() {
  if (!enabled()) return;
  State& s = state();
  if (s.config.orch_crash_at < 0) return;
  const std::int64_t done =
      s.fleet_completions.fetch_add(1, std::memory_order_relaxed);
  if (done == s.config.orch_crash_at) {
    crash("fleet_completion", done);
  }
}

bool should_fail_replica(std::int64_t index) {
  if (!enabled()) return false;
  State& s = state();
  if (s.config.replica_fail_at < 0 && !s.config.breaker_flap) return false;
  if (index != s.config.replica_fault_index) return false;
  // The ordinal only advances for dispatches to the target replica, so the
  // failure window is stable regardless of how much traffic the healthy
  // replicas absorb meanwhile.
  const std::int64_t ordinal =
      s.replica_dispatches.fetch_add(1, std::memory_order_relaxed);
  bool fail = false;
  if (s.config.breaker_flap) {
    // Bursts of three consecutive failures (the default breaker threshold):
    // the breaker genuinely opens, probes half-open, closes, and re-opens.
    fail = (ordinal / 3) % 2 == 1;
  } else {
    fail = ordinal >= s.config.replica_fail_at &&
           ordinal < s.config.replica_fail_at + s.config.replica_fail_count;
  }
  if (fail) {
    log_warn("fault: failing router dispatch #", ordinal, " to replica ",
             index);
  }
  return fail;
}

std::int64_t replica_dispatch_delay_ms(std::int64_t index) {
  if (!enabled()) return 0;
  State& s = state();
  if (s.config.replica_slow_ms <= 0) return 0;
  return index == s.config.replica_fault_index ? s.config.replica_slow_ms : 0;
}

void on_replica_request() {
  if (!enabled()) return;
  State& s = state();
  if (s.config.replica_kill9_at < 0 && s.config.replica_wedge_at < 0) return;
  const std::int64_t request =
      s.replica_requests.fetch_add(1, std::memory_order_relaxed);
  if (s.config.replica_kill9_at >= 0 &&
      request == s.config.replica_kill9_at) {
    if (s.config.mode == CrashMode::kThrow) {
      throw FaultCrash("injected replica kill -9 at request frame #" +
                       std::to_string(request));
    }
    log_error("fault: SIGKILLing replica worker at request frame #", request);
    ::raise(SIGKILL);
    std::_Exit(137);  // unreachable backstop
  }
  if (s.config.replica_wedge_at >= 0 &&
      request == s.config.replica_wedge_at) {
    // Flag first so the heartbeat thread falls silent, then park the request
    // loop: the supervisor's liveness lease — not a request error — must be
    // what detects this.
    s.replica_wedge_flag.store(true, std::memory_order_release);
    log_warn("fault: replica worker wedging at request frame #", request,
             " (heartbeats stop; waiting for supervisor SIGKILL, cap ",
             s.config.hang_cap_ms, " ms)");
    std::this_thread::sleep_for(
        std::chrono::milliseconds{s.config.hang_cap_ms});
    if (s.config.mode == CrashMode::kThrow) {
      throw FaultCrash("injected replica wedge expired unkilled at frame #" +
                       std::to_string(request));
    }
    log_error("fault: wedged replica outlived hang cap — _Exit(137)");
    std::_Exit(137);
  }
}

bool replica_wedged() {
  if (!enabled()) return false;
  return state().replica_wedge_flag.load(std::memory_order_acquire);
}

bool should_tear_frame() {
  if (!enabled()) return false;
  State& s = state();
  if (!s.config.ipc_torn_frame) return false;
  return !s.torn_frame_fired.exchange(true, std::memory_order_acq_rel);
}

std::int32_t corrupt_draft_token(std::int32_t token, std::int32_t vocab) {
  if (!enabled()) return token;
  State& s = state();
  if (s.config.spec_reject_p <= 0.0 || vocab <= 1) return token;
  bool corrupt = s.config.spec_reject_p >= 1.0;
  if (!corrupt) {
    const std::lock_guard<std::mutex> lock{s.rng_mutex};
    corrupt = s.rng.bernoulli(s.config.spec_reject_p);
  }
  if (!corrupt) return token;
  return static_cast<std::int32_t>((token + 1) % vocab);
}

bool should_poison_draft_logits() {
  if (!enabled()) return false;
  State& s = state();
  if (s.config.draft_nan < 0) return false;
  const std::int64_t check =
      s.draft_logit_checks.fetch_add(1, std::memory_order_relaxed);
  if (check != s.config.draft_nan) return false;
  log_warn("fault: poisoning draft logits with NaN at draft row ", check);
  return true;
}

}  // namespace sdd::fault
