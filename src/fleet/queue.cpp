#include "fleet/queue.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/proc.hpp"
#include "util/serialize.hpp"

namespace sdd::fleet {

namespace fs = std::filesystem;

namespace {

bool valid_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

std::optional<std::string> read_text(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return out.str();
}

std::string claim_text(const std::string& worker_id) {
  return "pid=" + std::to_string(static_cast<long long>(::getpid())) +
         "\nworker=" + worker_id +
         "\nbeat=" + std::to_string(proc::monotonic_ms()) + "\n";
}

std::map<std::string, std::string> parse_kv_lines(const std::string& text) {
  std::map<std::string, std::string> fields;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    fields[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return fields;
}

// Sorted stems of the `ext` files in `dir`.
std::vector<std::string> stems(const fs::path& dir, const char* ext) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator{dir}) {
    if (entry.path().extension() == ext) out.push_back(entry.path().stem().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<ClaimInfo> parse_claim(const std::string& text) {
  const auto fields = parse_kv_lines(text);
  ClaimInfo info;
  try {
    info.pid = std::stoll(fields.at("pid"));
    info.worker = fields.at("worker");
    info.beat_ms = std::stoll(fields.at("beat"));
  } catch (const std::exception&) {
    return std::nullopt;  // damaged claim
  }
  return info;
}

}  // namespace

std::string TaskSpec::serialize() const {
  std::string out;
  for (const auto& [key, value] : fields) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
  return out;
}

TaskSpec TaskSpec::parse(const std::string& id, const std::string& text) {
  TaskSpec spec;
  spec.id = id;
  spec.fields = parse_kv_lines(text);
  return spec;
}

const std::string& TaskSpec::field(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw Error(ErrorKind::kFatal,
                "task '" + id + "' is missing field '" + key + "'");
  }
  return it->second;
}

std::int64_t TaskSpec::field_int(const std::string& key) const {
  const std::string& text = field(key);
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw Error(ErrorKind::kFatal, "task '" + id + "' field '" + key +
                                       "' is not an integer: '" + text + "'");
  }
}

WorkQueue::WorkQueue(fs::path dir) : dir_{std::move(dir)} {
  std::error_code ec;
  for (const char* sub : {"tasks", "claims", "done", "dead", "attempts"}) {
    fs::create_directories(dir_ / sub, ec);
    if (ec) {
      throw Error(ErrorKind::kTransientIo, "work queue: cannot create " +
                                               (dir_ / sub).string() + ": " +
                                               ec.message());
    }
  }
}

fs::path WorkQueue::task_path(const std::string& id) const {
  return dir_ / "tasks" / (id + ".task");
}
fs::path WorkQueue::claim_path(const std::string& id) const {
  return dir_ / "claims" / (id + ".claim");
}
fs::path WorkQueue::done_path(const std::string& id) const {
  return dir_ / "done" / (id + ".done");
}
fs::path WorkQueue::dead_path(const std::string& id) const {
  return dir_ / "dead" / (id + ".task");
}

bool WorkQueue::enqueue(const TaskSpec& task) {
  if (!valid_id(task.id)) {
    throw Error(ErrorKind::kFatal, "work queue: invalid task id '" + task.id +
                                       "' (use [A-Za-z0-9._-], <=128 chars)");
  }
  if (fs::exists(task_path(task.id)) || fs::exists(done_path(task.id)) ||
      fs::exists(dead_path(task.id))) {
    return false;
  }
  atomic_write_text(task_path(task.id), task.serialize());
  return true;
}

std::vector<std::string> WorkQueue::task_ids() const {
  return stems(dir_ / "tasks", ".task");
}

TaskSpec WorkQueue::read_task(const std::string& id) const {
  const auto text = read_text(task_path(id));
  if (!text) {
    throw Error(ErrorKind::kWorkerLost,
                "work queue: task '" + id + "' vanished (quarantined?)");
  }
  return TaskSpec::parse(id, *text);
}

std::optional<TaskSpec> WorkQueue::try_claim(const std::string& worker_id) {
  const std::vector<std::string> ids = task_ids();
  if (ids.empty()) return std::nullopt;
  const bool race = fault::claim_race_armed();
  // Rotating the scan start by worker id spreads contention; the claim_race
  // fault pins everyone to index 0 so they all fight for the same file.
  const std::size_t start = race ? 0 : fnv1a(worker_id) % ids.size();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::string& id = ids[(start + i) % ids.size()];
    if (is_done(id)) continue;
    if (fs::exists(claim_path(id))) continue;
    if (race) {
      // Widen the select-to-claim window so concurrent workers pile onto the
      // same claim file. Exactly one link() below may succeed.
      std::this_thread::sleep_for(std::chrono::milliseconds{2});
    }
    // Publish the claim whole: stage it in a file of our own, then link()
    // it into place, which fails with EEXIST for all but one racer. A worker
    // killed mid-claim leaves at most a stray staging file, never an empty
    // claim.
    const fs::path claim = claim_path(id);
    static std::atomic<std::uint64_t> staged_seq{0};
    const fs::path staged = claim.string() + "." + std::to_string(::getpid()) +
                            "-" + std::to_string(staged_seq++) + ".tmp";
    const std::string text = claim_text(worker_id);
    detail::write_file_durable(staged, std::as_bytes(std::span{text}), /*sync=*/false);
    const bool won = ::link(staged.c_str(), claim.c_str()) == 0;
    const int link_errno = errno;
    std::error_code ec;
    fs::remove(staged, ec);
    if (!won && link_errno == EEXIST) continue;  // lost the race for this task
    if (!won) {
      throw Error(ErrorKind::kTransientIo,
                  "work queue: cannot create claim " + claim.string());
    }
    if (!fs::exists(task_path(id))) {
      // The task was quarantined between the scan and the claim; back out.
      fs::remove(claim, ec);
      continue;
    }
    return read_task(id);
  }
  return std::nullopt;
}

void WorkQueue::renew(const std::string& id, const std::string& worker_id) {
  const auto current = read_claim(id);
  // Lease already reclaimed (or handed to someone else): the old owner lost;
  // do not resurrect the claim file.
  if (!current || current->worker != worker_id) return;
  atomic_write_text(claim_path(id), claim_text(worker_id));
}

void WorkQueue::complete(const std::string& id, const std::string& worker_id) {
  atomic_write_text(done_path(id),
                    "worker=" + worker_id +
                        "\nms=" + std::to_string(proc::monotonic_ms()) + "\n");
  std::error_code ec;
  fs::remove(claim_path(id), ec);
}

void WorkQueue::release(const std::string& id) {
  std::error_code ec;
  fs::remove(claim_path(id), ec);
}

bool WorkQueue::release_failed(const std::string& id,
                               std::int64_t retry_budget,
                               const std::string& why) {
  if (is_done(id)) {  // completion already published; nothing failed
    release(id);
    return false;
  }
  std::error_code ec;
  if (!fs::remove(claim_path(id), ec)) {
    // Someone else (a reclaim) already broke this lease and counted the
    // failure; the unlink is the mutex.
    return false;
  }
  return bump_attempts(id, retry_budget, why);
}

std::vector<ReclaimedLease> WorkQueue::reclaim_stale(std::int64_t lease_ms,
                                                     std::int64_t retry_budget) {
  std::vector<ReclaimedLease> reclaimed;
  for (const std::string& id : stems(dir_ / "claims", ".claim")) {
    std::error_code ec;
    if (is_done(id)) {  // crash between done marker and claim release
      fs::remove(claim_path(id), ec);
      continue;
    }
    const auto text = read_text(claim_path(id));
    if (!text) continue;  // released meanwhile
    // Claims are published whole, so one that does not parse has no owner
    // left to wait for: it is stale at once. So is a beat too far in the
    // past to subtract, and a beat from the future: the claim was read
    // before `now`, so only a queue that outlived a reboot (CLOCK_MONOTONIC
    // restarts) holds one.
    const auto claim = parse_claim(*text);
    const std::int64_t now = proc::monotonic_ms();
    std::int64_t silent = INT64_MAX;
    if (claim && !__builtin_sub_overflow(now, claim->beat_ms, &silent) &&
        silent >= 0 && silent <= lease_ms) {
      continue;
    }
    if (!fs::remove(claim_path(id), ec)) continue;  // lost the reclaim race
    ReclaimedLease lease;
    lease.id = id;
    lease.claim = claim.value_or(ClaimInfo{});
    lease.quarantined = bump_attempts(
        id, retry_budget,
        claim ? "lease expired (worker " + claim->worker + ", pid " +
                    std::to_string(claim->pid) + ", silent for " +
                    std::to_string(silent) + " ms)"
              : "unparsable claim");
    log_warn("fleet: reclaimed stale lease on '", id, "' from worker ",
             lease.claim.worker, " (pid ", lease.claim.pid, ")",
             lease.quarantined ? " — task quarantined" : "");
    reclaimed.push_back(std::move(lease));
  }
  return reclaimed;
}

bool WorkQueue::requeue_done(const std::string& id, std::int64_t retry_budget,
                             const std::string& why) {
  std::error_code ec;
  if (!fs::remove(done_path(id), ec)) return false;
  release(id);  // drop any lingering claim from the crash window
  return bump_attempts(id, retry_budget, why);
}

bool WorkQueue::is_done(const std::string& id) const {
  return fs::exists(done_path(id));
}

std::optional<ClaimInfo> WorkQueue::read_claim(const std::string& id) const {
  const auto text = read_text(claim_path(id));
  return text ? parse_claim(*text) : std::nullopt;
}

std::int64_t WorkQueue::attempts(const std::string& id) const {
  const auto text = read_text(dir_ / "attempts" / (id + ".n"));
  if (!text) return 0;
  try {
    return std::stoll(*text);
  } catch (const std::exception&) {
    return 0;
  }
}

bool WorkQueue::bump_attempts(const std::string& id, std::int64_t retry_budget,
                              const std::string& why) {
  std::int64_t n = attempts(id) + 1;
  try {
    atomic_write_text(dir_ / "attempts" / (id + ".n"), std::to_string(n));
  } catch (const Error& e) {
    // Best effort: an uncountable failure costs one extra retry, never a
    // lost task.
    log_warn("fleet: could not record attempt for '", id, "': ", e.what());
  }
  log_warn("fleet: task '", id, "' failed (attempt ", n, "/", retry_budget,
           "): ", why);
  if (n < retry_budget) return false;
  quarantine_task(id, why);
  return true;
}

void WorkQueue::quarantine_task(const std::string& id, const std::string& why) {
  std::error_code ec;
  fs::rename(task_path(id), dead_path(id), ec);
  if (ec) {
    // Already quarantined by a racing process, or the file vanished; either
    // way the task is out of the live queue.
    fs::remove(task_path(id), ec);
  }
  try {
    atomic_write_text(dir_ / "dead" / (id + ".reason"), why + "\n");
  } catch (const Error&) {
    // The rename above already removed the task from the queue.
  }
  log_error("fleet: quarantined poison task '", id, "': ", why);
}

QueueCounts WorkQueue::counts() const {
  const auto count = [&](const char* sub, const char* ext) {
    return static_cast<std::int64_t>(stems(dir_ / sub, ext).size());
  };
  return {count("tasks", ".task"), count("claims", ".claim"),
          count("done", ".done"), count("dead", ".task")};
}

bool WorkQueue::all_terminal() const {
  for (const std::string& id : task_ids()) {
    if (!is_done(id)) return false;
  }
  return true;
}

}  // namespace sdd::fleet
