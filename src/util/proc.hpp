// Minimal POSIX process helpers for the multi-process fleet orchestrator.
//
// The orchestrator forks/execs worker processes, reaps them without blocking,
// and escalates SIGTERM -> SIGKILL when a worker overstays its lease. All
// helpers throw sdd::Error (util/error.hpp) so callers can classify failures;
// a spawn failure is kWorkerLost (retryable: the orchestrator respawns).
//
// monotonic_ms() is CLOCK_MONOTONIC, which is comparable across processes on
// the same machine — the lease/heartbeat protocol (fleet/queue) depends on
// that, and deliberately avoids the wall clock so an NTP step can never
// expire every lease at once.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace sdd::proc {

// Milliseconds on CLOCK_MONOTONIC (since boot). Cross-process comparable.
std::int64_t monotonic_ms();

// Path of the running executable (/proc/self/exe). The orchestrator re-execs
// itself with a worker subcommand, so workers always run the same binary.
std::filesystem::path self_exe();

// fork + execve; the child leads a new process group (see terminate()).
// `argv[0]` is the program path; `env_overrides` are KEY=VALUE
// strings appended to (and overriding) the inherited environment.
// `inherit_fds` are descriptors that survive the exec: they are opened
// CLOEXEC in the parent (so concurrently spawned siblings never leak them)
// and the child clears the flag on its own copies between fork and exec.
// Returns the child pid; throws Error{kWorkerLost} when the fork fails. An
// exec failure inside the child exits 127.
std::int64_t spawn(const std::vector<std::string>& argv,
                   const std::vector<std::string>& env_overrides = {},
                   const std::vector<int>& inherit_fds = {});

// True when `pid` still exists (kill(pid, 0) semantics).
bool alive(std::int64_t pid);

// Best-effort signal delivery; never throws. Refuses pid <= 1: a stale
// sentinel (-1 or 0) passed to kill() would signal the whole process group
// or session — silently doing nothing is the only safe interpretation.
void send_signal(std::int64_t pid, int signum) noexcept;

struct ExitStatus {
  std::int64_t pid = -1;
  int exit_code = -1;     // valid when exited normally, else -1
  int term_signal = 0;    // terminating signal, 0 when exited normally
  bool clean() const { return term_signal == 0 && exit_code == 0; }
};

// Non-blocking reap of one child. nullopt while the child is still running;
// throws Error{kWorkerLost} if `pid` is not a child of this process and
// Error{kFatal} on pid <= 1 (waitpid(-1) would reap an arbitrary child).
std::optional<ExitStatus> try_reap(std::int64_t pid);

// Polls try_reap until the child exits or `timeout_ms` elapses.
std::optional<ExitStatus> wait_reap(std::int64_t pid, std::int64_t timeout_ms);

// SIGTERM the child's process group, wait up to `grace_ms` for the child,
// then SIGKILL the group (no descendant outlives it) and reap the child.
// Used for fleet and replica shutdown so workers can run their graceful path.
// Throws Error{kFatal} on pid <= 1 — a stale sentinel here would
// kill(-1, SIGKILL) everything the user owns.
ExitStatus terminate(std::int64_t pid, std::int64_t grace_ms);

}  // namespace sdd::proc
