#include "util/proc.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "util/error.hpp"
#include "util/log.hpp"

extern char** environ;

namespace sdd::proc {

std::int64_t monotonic_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1'000'000;
}

Child Child::spawn(const std::vector<std::string>& argv,
                   const std::vector<std::string>& env_overrides,
                   const std::vector<int>& inherit_fds) {
  if (argv.empty()) {
    throw Error(ErrorKind::kFatal, "proc: spawn with empty argv");
  }
  // Build the child argv/envp before forking: only async-signal-safe calls
  // are allowed between fork and exec in a multi-threaded parent.
  std::vector<std::string> env = env_overrides;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry{*e};
    const std::string key = entry.substr(0, entry.find('=')) + "=";
    if (std::none_of(env_overrides.begin(), env_overrides.end(),
                     [&](const std::string& o) { return o.rfind(key, 0) == 0; })) {
      env.push_back(entry);
    }
  }
  const auto pointers = [](const std::vector<std::string>& strings) {
    std::vector<char*> out;
    for (const std::string& s : strings) out.push_back(const_cast<char*>(s.c_str()));
    out.push_back(nullptr);
    return out;
  };
  const std::vector<char*> argv_ptrs = pointers(argv);
  const std::vector<char*> env_ptrs = pointers(env);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw Error(ErrorKind::kWorkerLost,
                std::string{"proc: fork failed: "} + std::strerror(errno));
  }
  if (pid == 0) {
    // Lead a process group so terminate() reaches everything the child
    // starts; set on both sides of the fork so neither side races the other.
    ::setpgid(0, 0);
    // Clear FD_CLOEXEC on the fds this child must keep (fcntl is
    // async-signal-safe); every other CLOEXEC fd — including the socketpair
    // ends of concurrently spawned siblings — closes at exec.
    for (const int fd : inherit_fds) {
      ::fcntl(fd, F_SETFD, 0);
    }
    ::execve(argv_ptrs[0], argv_ptrs.data(), env_ptrs.data());
    // exec failed; 127 is the shell convention for "command not runnable".
    ::_exit(127);
  }
  ::setpgid(pid, 0);
  try {
    return adopt(pid);
  } catch (...) {
    ::kill(pid, SIGKILL);  // not supervisable: do not leave it running
    ::waitpid(pid, nullptr, 0);
    throw;
  }
}

Child Child::adopt(std::int64_t pid) {
  if (pid <= 1) {
    throw Error(ErrorKind::kFatal,
                "proc: refusing to adopt pid " + std::to_string(pid) +
                    " (stale sentinel would signal the whole session)");
  }
  const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (fd < 0) {
    throw Error(ErrorKind::kFatal,
                "proc: pidfd_open(" + std::to_string(pid) + ") failed: " +
                    std::strerror(errno) + " (needs Linux >= 5.4)");
  }
  // Only a child can be reaped; refuse anything else before a destructor
  // could signal it.
  siginfo_t info{};
  if (::waitid(P_PIDFD, static_cast<id_t>(fd), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error(ErrorKind::kWorkerLost,
                "proc: cannot adopt pid " + std::to_string(pid) + ": " + why);
  }
  return Child{pid, fd};
}

Child::Child(Child&& other) noexcept
    : pid_{std::exchange(other.pid_, -1)},
      fd_{std::exchange(other.fd_, -1)},
      status_{std::exchange(other.status_, std::nullopt)} {}

Child& Child::operator=(Child&& other) noexcept {
  Child replaced{std::move(other)};  // ends up with, and destroys, our old child
  std::swap(pid_, replaced.pid_);
  std::swap(fd_, replaced.fd_);
  std::swap(status_, replaced.status_);
  return *this;
}

Child::~Child() {
  if (fd_ < 0) return;
  if (!status_) {
    signal_group(SIGKILL);
    try {
      wait(10'000);
    } catch (const std::exception& e) {
      log_warn("proc: could not reap pid ", pid_, ": ", e.what());
    }
  }
  ::close(fd_);
}

std::optional<ExitStatus> Child::try_reap() {
  if (status_) return status_;
  if (fd_ < 0) {
    throw Error(ErrorKind::kFatal,
                "proc: refusing to reap an empty Child (pid -1 would reap an "
                "arbitrary child)");
  }
  siginfo_t info{};
  if (::waitid(P_PIDFD, static_cast<id_t>(fd_), &info, WEXITED | WNOHANG) != 0) {
    throw Error(ErrorKind::kWorkerLost,
                "proc: waitid(" + std::to_string(pid_) +
                    ") failed: " + std::strerror(errno));
  }
  if (info.si_pid == 0) return std::nullopt;
  const bool exited = info.si_code == CLD_EXITED;
  status_ = ExitStatus{pid_, exited ? info.si_status : -1, exited ? 0 : info.si_status};
  return status_;
}

void Child::await_exit(std::int64_t timeout_ms) const {
  const std::int64_t deadline = monotonic_ms() + timeout_ms;
  pollfd pfd{fd_, POLLIN, 0};
  // A signal handler's EINTR resumes the wait with what is left of it.
  while (::poll(&pfd, 1, static_cast<int>(std::clamp<std::int64_t>(
                             deadline - monotonic_ms(), 0, INT_MAX))) < 0 &&
         errno == EINTR) {
  }
}

std::optional<ExitStatus> Child::wait(std::int64_t timeout_ms) {
  if (!status_ && fd_ >= 0) await_exit(timeout_ms);
  return try_reap();
}

void Child::signal(int signum) const noexcept {
  // After the reap the pidfd answers ESRCH: it never reaches a recycled pid.
  if (fd_ >= 0) ::syscall(SYS_pidfd_send_signal, fd_, signum, nullptr, 0);
}

// Signals the process group the child leads, or the child alone when it
// leads none (a forked test seam). Only called before the reap: while the
// zombie stands, its pid, and so its group id, cannot be reused.
void Child::signal_group(int signum) const noexcept {
  if (fd_ < 0) return;  // never kill(-(-1)): that would signal init
  if (::kill(-static_cast<pid_t>(pid_), signum) != 0) signal(signum);
}

ExitStatus Child::terminate(std::int64_t grace_ms) {
  if (status_ || fd_ < 0) return status_.value_or(ExitStatus{});
  signal_group(SIGTERM);
  await_exit(grace_ms);  // leaves the zombie unreaped for the group kill
  // Kill what is left of the group: the child if it outlived the grace
  // period, and any descendant that survived SIGTERM.
  signal_group(SIGKILL);
  // SIGKILL cannot be blocked; the bounded wait is belt-and-braces against a
  // child stuck in an uninterruptible state.
  if (auto status = wait(10'000)) return *status;
  ExitStatus lost;
  lost.pid = pid_;
  lost.term_signal = SIGKILL;
  return lost;
}

}  // namespace sdd::proc
