// POSIX child processes for the fleet orchestrator and serving replicas.
//
// proc::Child owns one child: its pid and a pidfd (pidfd_open), so the
// child's exit is a pollable event (the pidfd turns readable) and every
// signal goes through the pidfd, which can never reach a recycled pid.
// Callers poll fd() next to their own descriptors and reap at once instead
// of sleeping between waitpid() calls. Destroying a Child that still runs
// SIGKILLs its process group and reaps it, so no owner can leak a worker.
// Needs Linux >= 5.4 (pidfd_open, waitid(P_PIDFD)); on older kernels the
// first spawn throws Error{kFatal}. All failures are sdd::Error
// (util/error.hpp): a fork failure is kWorkerLost (the owner respawns).
//
// monotonic_ms() is CLOCK_MONOTONIC, which is comparable across processes on
// the same machine — the lease/heartbeat protocol (fleet/queue) depends on
// that, and deliberately avoids the wall clock so an NTP step can never
// expire every lease at once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sdd::proc {

// Milliseconds on CLOCK_MONOTONIC (since boot). Cross-process comparable.
std::int64_t monotonic_ms();

// The running executable, for re-exec'ing it with a worker subcommand.
// Exec'ing the link itself runs this process's own image even after its file
// was replaced or deleted on disk (a rebuild mid-run); the path the link
// resolves to would name the new file or none.
inline constexpr const char* kSelfExe = "/proc/self/exe";

struct ExitStatus {
  std::int64_t pid = -1;
  int exit_code = -1;     // valid when exited normally, else -1
  int term_signal = 0;    // terminating signal, 0 when exited normally
  bool clean() const { return term_signal == 0 && exit_code == 0; }
};

class Child {
 public:
  Child() = default;  // owns no process
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;  // the replaced child is destroyed
  ~Child();

  // fork + execve; the child leads a new process group (see terminate()).
  // `argv[0]` is the program path; `env_overrides` are KEY=VALUE strings
  // appended to (and overriding) the inherited environment. `inherit_fds`
  // survive the exec: they are opened CLOEXEC in the parent (so concurrently
  // spawned siblings never leak them) and the child clears the flag on its
  // own copies between fork and exec. An exec failure exits 127.
  static Child spawn(const std::vector<std::string>& argv,
                     const std::vector<std::string>& env_overrides = {},
                     const std::vector<int>& inherit_fds = {});

  // Takes ownership of child `pid` forked by the caller (the fork-based test
  // seams). Throws Error{kFatal} on pid <= 1 — a stale sentinel that
  // kill() would fan out to a whole group or session — and
  // Error{kWorkerLost} when `pid` is not a child of this process.
  static Child adopt(std::int64_t pid);

  explicit operator bool() const { return fd_ >= 0; }
  std::int64_t pid() const { return pid_; }  // -1 when empty
  int fd() const { return fd_; }              // readable once the child exits

  // Non-blocking reap: nullopt while the child runs, its status (every call)
  // once it has exited. Both reaps throw Error{kFatal} on an empty Child.
  std::optional<ExitStatus> try_reap();
  // Reaps the child, waiting up to `timeout_ms` for it to exit.
  std::optional<ExitStatus> wait(std::int64_t timeout_ms);

  // Signals the child alone; never throws. A no-op once the child is reaped.
  void signal(int signum) const noexcept;

  // SIGTERM the child's process group, wait up to `grace_ms` for the child,
  // then SIGKILL the group (no descendant outlives it) and reap the child.
  // Used for fleet and replica shutdown so workers can run their graceful
  // path. An empty Child signals nothing and returns ExitStatus{} at once.
  ExitStatus terminate(std::int64_t grace_ms);

 private:
  Child(std::int64_t pid, int fd) : pid_{pid}, fd_{fd} {}
  // Polls the pidfd until the child exits or `timeout_ms` passes; no reap.
  void await_exit(std::int64_t timeout_ms) const;
  void signal_group(int signum) const noexcept;

  std::int64_t pid_ = -1;
  int fd_ = -1;                        // pidfd
  std::optional<ExitStatus> status_;  // set once reaped
};

}  // namespace sdd::proc
