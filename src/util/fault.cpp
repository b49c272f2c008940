#include "util/fault.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/supervisor.hpp"

namespace sdd::fault {
namespace {

using D = Directive;

constexpr std::size_t index_of(D d) { return static_cast<std::size_t>(d); }

// Per argument kind, in ArgKind order: how usage() writes the argument, the
// optional key before its value ("at=3", "p=0.5", "ms=20"), and the least
// integer value accepted.
struct KindSyntax {
  const char* placeholder;
  const char* key;
  std::int64_t min;
};

constexpr KindSyntax kSyntax[] = {
    {"", "", 0},                                           // kNone
    {":N", "at=", 0},                                      // kOrdinal
    {"[:P]", "p=", 0},                                     // kProb
    {":MS", "ms=", 0},                                     // kMs
    {":K", "", 1},                                         // kCount
    {":I", "", 0},                                         // kIndex
    {":exit/throw", "", 0},                                // kMode
    {":N", "", std::numeric_limits<std::int64_t>::min()},  // kSeed
};

const KindSyntax& syntax(ArgKind kind) {
  return kSyntax[static_cast<std::size_t>(kind)];
}

std::invalid_argument malformed(const std::string& directive, const std::string& why) {
  return std::invalid_argument("fault: " + why + " in '" + directive + "'");
}

// Parses all of `text` as one number.
template <typename T>
T number(const std::string& text, const std::string& directive) {
  try {
    std::size_t used = 0;
    T value;
    if constexpr (std::is_same_v<T, double>) {
      value = std::stod(text, &used);
    } else {
      value = std::stoll(text, &used);
    }
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw malformed(directive, "bad number '" + text + "'");
}

struct State {
  Spec spec;
  std::atomic<bool> armed{false};
  std::array<std::atomic<std::int64_t>, static_cast<std::size_t>(Site::kCount)>
      counters{};
  // Sites that an armed directive reads; the others never count.
  std::array<bool, static_cast<std::size_t>(Site::kCount)> live{};
  std::mutex rng_mutex;
  Rng rng{0};
};

State& state() {
  static State s;
  return s;
}

const Spec& spec() { return state().spec; }

// SDD_FAULT is read once, at the first hook; any configure()/reset() before
// that consumes the read, so a programmatic spec always wins.
std::once_flag g_env_once;

void arm(const Spec& armed) {
  State& s = state();
  s.spec = armed;
  s.live.fill(false);
  for (std::size_t i = 0; i < kRows.size(); ++i) {
    if (armed.armed(static_cast<D>(i))) {
      s.live[static_cast<std::size_t>(kRows[i].site)] = true;
    }
  }
  for (auto& counter : s.counters) counter.store(0, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock{s.rng_mutex};
    s.rng.reseed(static_cast<std::uint64_t>(armed.value(D::seed)));
  }
  s.armed.store(armed.armed(), std::memory_order_release);
}

void init_from_env() {
  std::call_once(g_env_once, [] {
    const Spec env = env_spec();
    if (!env.armed()) return;
    arm(env);
    log_warn("fault: armed from SDD_FAULT=", std::getenv("SDD_FAULT"));
  });
}

bool on(D d) { return spec().armed(d); }

// The ordinal of this event at `site`, or -1 when no armed directive reads
// the site (its counter then stays put).
std::int64_t tick(Site site) {
  State& s = state();
  const auto i = static_cast<std::size_t>(site);
  if (!s.live[i]) return -1;
  return s.counters[i].fetch_add(1, std::memory_order_relaxed);
}

// "crash_at_step:7": the directive as written, naming the event it fired at.
std::string label(D d) {
  return std::string{row(d).name} + ":" + std::to_string(spec().value(d));
}

// True when ordinal directive `d` is armed for event `ordinal`.
bool fire(D d, std::int64_t ordinal) {
  if (ordinal < 0 || !on(d) || spec().value(d) != ordinal) return false;
  log_warn("fault: firing ", label(d));
  return true;
}

// Counts one event at `d`'s own site and fires `d` on its ordinal.
bool fires(D d) { return fire(d, tick(row(d).site)); }

bool draw(double p) {
  State& s = state();
  const std::lock_guard<std::mutex> lock{s.rng_mutex};
  return s.rng.bernoulli(p);
}

std::chrono::milliseconds hang_cap() {
  return std::chrono::milliseconds{spec().value(D::hang_cap)};
}

// ---- shared actions ----------------------------------------------------------

[[noreturn]] void crash(D d) {
  if (spec().mode() == CrashMode::kThrow) throw FaultCrash("injected " + label(d));
  log_error("fault: ", label(d), " — _Exit(137)");
  std::_Exit(137);  // no atexit/flush, like SIGKILL
}

[[noreturn]] void kill9(D d) {
  if (spec().mode() == CrashMode::kThrow) throw FaultCrash("injected " + label(d));
  log_error("fault: ", label(d), " — raising SIGKILL");
  ::raise(SIGKILL);
  std::_Exit(137);  // unreachable backstop
}

// Parks in supervisor::wait_for_cancellation: Error{timeout} once a watchdog
// cancels the enclosing stage or hang_cap expires.
[[noreturn]] void hang(D d) {
  const bool cancelled = supervisor::wait_for_cancellation(hang_cap());
  throw Error(ErrorKind::kTimeout,
              "injected " + label(d) +
                  (cancelled ? " aborted by watchdog" : " expired unwatched"));
}

// Goes silent until another process kills this one; crashes at hang_cap.
[[noreturn]] void stall(D d) {
  std::this_thread::sleep_for(hang_cap());
  log_error("fault: nothing killed ", label(d), " within hang_cap");
  crash(d);
}

[[noreturn]] void exhaust(D d) {
  throw Error(ErrorKind::kResourceExhausted, "injected " + label(d));
}

// O_EXCL marker under the fleet run directory: the first process to create
// it wins, so a fleet-level fault fires at most once per run even though
// every respawned worker inherits the same spec.
bool once_per_run(const std::filesystem::path& fleet_dir, D d) {
  const std::filesystem::path marker =
      fleet_dir / (std::string{".fault_"} + row(d).name);
  const int fd = ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

}  // namespace

// ---- the table -----------------------------------------------------------------

std::string usage(const Row& row) {
  return std::string{row.name} + syntax(row.kind).placeholder;
}

std::string directive_help() {
  std::string text;
  for (const Row& row : kRows) {
    std::string line = "  " + usage(row);
    line.resize(std::max<std::size_t>(line.size() + 1, 24), ' ');
    text += line + row.doc + "\n";
  }
  return text;
}

Spec::Spec() {
  for (std::size_t i = 0; i < kRows.size(); ++i) value_[i] = kRows[i].fallback;
}

bool Spec::armed(D d) const {
  const std::size_t i = index_of(d);
  if (!named_[i]) return false;
  switch (row(d).kind) {
    case ArgKind::kNone:
    case ArgKind::kOrdinal: return true;
    case ArgKind::kProb: return probability_[i] > 0.0;
    case ArgKind::kMs: return value_[i] > 0;
    default: return false;
  }
}

bool Spec::armed() const {
  for (std::size_t i = 0; i < kRows.size(); ++i) {
    if (armed(static_cast<D>(i))) return true;
  }
  return false;
}

std::int64_t Spec::value(D d) const { return value_[index_of(d)]; }

double Spec::probability(D d) const { return probability_[index_of(d)]; }

CrashMode Spec::mode() const { return static_cast<CrashMode>(value(D::mode)); }

Spec parse_fault_spec(const std::string& text) {
  Spec spec;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = std::min(text.find(',', begin), text.size());
    const std::string directive = text.substr(begin, end - begin);
    begin = end + 1;
    if (directive.empty()) continue;

    const std::size_t colon = directive.find(':');
    const std::string name = directive.substr(0, colon);
    const auto found = std::find_if(kRows.begin(), kRows.end(),
                                    [&](const Row& r) { return name == r.name; });
    if (found == kRows.end()) throw malformed(directive, "unknown directive");
    const auto i = static_cast<std::size_t>(found - kRows.begin());
    const KindSyntax& syn = syntax(found->kind);
    std::optional<std::string> arg;
    if (colon != std::string::npos) {
      arg = directive.substr(colon + 1);
      if (*syn.key != '\0' && arg->rfind(syn.key, 0) == 0) {
        arg = arg->substr(std::string{syn.key}.size());
      }
    }

    switch (found->kind) {
      case ArgKind::kNone:
        if (arg) throw malformed(directive, "unexpected argument");
        break;
      case ArgKind::kMode:
        if (arg != "exit" && arg != "throw") {
          throw malformed(directive, "mode must be exit or throw");
        }
        spec.value_[i] = static_cast<std::int64_t>(arg == "throw" ? CrashMode::kThrow
                                                                  : CrashMode::kExit);
        break;
      case ArgKind::kProb: {
        const double p = arg ? number<double>(*arg, directive) : 1.0;
        if (!(p >= 0.0 && p <= 1.0)) throw malformed(directive, "probability outside [0, 1]");
        spec.probability_[i] = p;
        break;
      }
      default: {
        const auto value = number<std::int64_t>(arg.value_or(""), directive);
        if (value < syn.min) {
          throw malformed(directive, "value below " + std::to_string(syn.min));
        }
        spec.value_[i] = value;
      }
    }
    spec.named_[i] = true;
  }
  return spec;
}

Spec env_spec(const char* var) {
  const char* text = std::getenv(var);
  if (text == nullptr || *text == '\0') return Spec{};
  try {
    return parse_fault_spec(text);
  } catch (const std::invalid_argument& e) {
    // A typo'd spec must not silently run the soak fault-free.
    log_error("fault: malformed ", var, "='", text, "': ", e.what(),
              "\nfault: valid directives (comma-combined):\n", directive_help());
    std::exit(64);  // EX_USAGE
  }
}

void configure(const Spec& spec) {
  std::call_once(g_env_once, [] {});
  arm(spec);
}

void configure(const std::string& spec) { configure(parse_fault_spec(spec)); }

void reset() { configure(Spec{}); }

bool enabled() {
  init_from_env();
  return state().armed.load(std::memory_order_acquire);
}

// ---- hooks -------------------------------------------------------------------

void on_train_step() {
  if (!enabled()) return;
  const std::int64_t step = tick(Site::kTrainStep);
  if (fire(D::crash_at_step, step)) crash(D::crash_at_step);
  if (fire(D::hang_at_step, step)) hang(D::hang_at_step);
}

float poison_loss(float loss) {
  if (enabled() && fires(D::nan_at_step)) return std::numeric_limits<float>::quiet_NaN();
  return loss;
}

bool should_fail_io(const std::filesystem::path& path) {
  if (!enabled() || !on(D::io_fail)) return false;
  const bool fail = draw(spec().probability(D::io_fail));
  if (fail) log_warn("fault: injected io failure for ", path.string());
  return fail;
}

bool should_truncate_write(const std::filesystem::path& path) {
  if (!enabled() || !on(D::truncate_write)) return false;
  log_warn("fault: tearing write of ", path.string());
  return true;
}

void on_io_commit(const std::filesystem::path& path) {
  if (!enabled() || !fires(D::crash_at_io)) return;
  log_error("fault: crashing during commit of ", path.string());
  crash(D::crash_at_io);
}

void io_delay(const std::filesystem::path& path) {
  if (!enabled() || !on(D::slow_io)) return;
  const std::int64_t ms = spec().value(D::slow_io);
  log_debug("fault: delaying commit of ", path.string(), " by ", ms, " ms");
  std::this_thread::sleep_for(std::chrono::milliseconds{ms});
}

void on_alloc(std::size_t bytes) {
  if (!enabled() || !fires(D::alloc_fail)) return;
  log_warn("fault: failing a guarded allocation of ", bytes, " bytes");
  exhaust(D::alloc_fail);
}

void on_decode_token() {
  if (enabled() && fires(D::hang_decode)) hang(D::hang_decode);
}

bool should_poison_logits() { return enabled() && fires(D::nan_decode); }

void on_decode_pass() {
  if (enabled() && fires(D::decode_pass_fail)) exhaust(D::decode_pass_fail);
}

void on_fleet_claim(const std::filesystem::path& fleet_dir) {
  if (!enabled()) return;
  const std::int64_t claim = tick(Site::kFleetClaim);
  if (fire(D::worker_kill9, claim) && once_per_run(fleet_dir, D::worker_kill9)) {
    kill9(D::worker_kill9);
  }
  if (fire(D::worker_stall, claim) && once_per_run(fleet_dir, D::worker_stall)) {
    stall(D::worker_stall);
  }
}

bool claim_race_armed() { return enabled() && on(D::claim_race); }

void on_fleet_completion() {
  if (enabled() && fires(D::orch_crash)) crash(D::orch_crash);
}

bool should_fail_replica(std::int64_t index) {
  if (!enabled() || index != spec().value(D::replica_idx)) return false;
  // The ordinal only advances for dispatches to the target replica, so the
  // failure window is stable however much traffic the healthy replicas take.
  const std::int64_t ordinal = tick(Site::kReplicaDispatch);
  if (ordinal < 0) return false;
  bool fail = false;
  if (on(D::breaker_flap)) {
    // Bursts of three consecutive failures (the default breaker threshold):
    // the breaker opens, probes half-open, closes, and re-opens.
    fail = (ordinal / 3) % 2 == 1;
  } else {
    const std::int64_t first = spec().value(D::replica_fail);
    fail = ordinal >= first && ordinal < first + spec().value(D::replica_fail_n);
  }
  if (fail) log_warn("fault: failing router dispatch #", ordinal, " to replica ", index);
  return fail;
}

std::int64_t replica_dispatch_delay_ms(std::int64_t index) {
  if (!enabled() || index != spec().value(D::replica_idx)) return 0;
  return spec().value(D::replica_slow);
}

void on_replica_request() {
  if (!enabled()) return;
  const std::int64_t frame = tick(Site::kReplicaRequest);
  if (fire(D::replica_kill9, frame)) kill9(D::replica_kill9);
  // replica_wedged() turns true with this frame, so the heartbeat thread
  // falls silent: the supervisor's lease, not a request error, must detect it.
  if (fire(D::replica_wedge, frame)) stall(D::replica_wedge);
}

bool replica_wedged() {
  if (!enabled() || !on(D::replica_wedge)) return false;
  const auto site = static_cast<std::size_t>(Site::kReplicaRequest);
  return state().counters[site].load(std::memory_order_relaxed) >
         spec().value(D::replica_wedge);
}

bool should_tear_frame() {
  return enabled() && on(D::ipc_torn_frame) && tick(Site::kResponseFrame) == 0;
}

std::int32_t corrupt_draft_token(std::int32_t token, std::int32_t vocab) {
  if (!enabled() || !on(D::spec_reject_storm) || vocab <= 1) return token;
  const double p = spec().probability(D::spec_reject_storm);
  if (p < 1.0 && !draw(p)) return token;
  return static_cast<std::int32_t>((token + 1) % vocab);
}

bool should_poison_draft_logits() { return enabled() && fires(D::draft_nan); }

}  // namespace sdd::fault
