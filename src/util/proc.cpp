#include "util/proc.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "util/error.hpp"

extern char** environ;

namespace sdd::proc {

std::int64_t monotonic_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 +
         static_cast<std::int64_t>(ts.tv_nsec) / 1'000'000;
}

std::filesystem::path self_exe() {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) {
    throw Error(ErrorKind::kFatal,
                "proc: cannot resolve /proc/self/exe: " + ec.message());
  }
  return path;
}

std::int64_t spawn(const std::vector<std::string>& argv,
                   const std::vector<std::string>& env_overrides,
                   const std::vector<int>& inherit_fds) {
  if (argv.empty()) {
    throw Error(ErrorKind::kFatal, "proc: spawn with empty argv");
  }
  // Build the child argv/envp before forking: only async-signal-safe calls
  // are allowed between fork and exec in a multi-threaded parent.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry{*e};
    const std::string key = entry.substr(0, entry.find('='));
    bool overridden = false;
    for (const std::string& override_entry : env_overrides) {
      if (override_entry.rfind(key + "=", 0) == 0) {
        overridden = true;
        break;
      }
    }
    if (!overridden) env.push_back(entry);
  }
  env.insert(env.end(), env_overrides.begin(), env_overrides.end());

  std::vector<char*> argv_ptrs;
  argv_ptrs.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    argv_ptrs.push_back(const_cast<char*>(arg.c_str()));
  }
  argv_ptrs.push_back(nullptr);
  std::vector<char*> env_ptrs;
  env_ptrs.reserve(env.size() + 1);
  for (const std::string& entry : env) {
    env_ptrs.push_back(const_cast<char*>(entry.c_str()));
  }
  env_ptrs.push_back(nullptr);

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
  return pid;
}

bool alive(std::int64_t pid) {
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

void send_signal(std::int64_t pid, int signum) noexcept {
  // pid 0 / -1 / -pgid forms of kill() signal whole groups; a stale pid
  // sentinel must never fan out like that. pid 1 is refused for the same
  // defence-in-depth reason (containers run us as init's descendants).
  if (pid > 1) ::kill(static_cast<pid_t>(pid), signum);
}

std::optional<ExitStatus> try_reap(std::int64_t pid) {
  if (pid <= 1) {
    throw Error(ErrorKind::kFatal,
                "proc: refusing to reap pid " + std::to_string(pid) +
                    " (waitpid would collect an arbitrary child)");
  }
  int status = 0;
  const pid_t reaped = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
  if (reaped == 0) return std::nullopt;
  if (reaped < 0) {
    throw Error(ErrorKind::kWorkerLost,
                "proc: waitpid(" + std::to_string(pid) +
                    ") failed: " + std::strerror(errno));
  }
  ExitStatus result;
  result.pid = reaped;
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.term_signal = WTERMSIG(status);
  }
  return result;
}

std::optional<ExitStatus> wait_reap(std::int64_t pid, std::int64_t timeout_ms) {
  const std::int64_t deadline = monotonic_ms() + timeout_ms;
  for (;;) {
    if (auto status = try_reap(pid)) return status;
    if (monotonic_ms() >= deadline) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
}

namespace {

// Signals the process group `pid` leads, or `pid` alone when it leads none.
void signal_group(std::int64_t pid, int signum) {
  if (::kill(-static_cast<pid_t>(pid), signum) != 0) send_signal(pid, signum);
}

// True once child `pid` has exited. Leaves it unreaped: while the zombie
// stands its pid, and so its group id, cannot be reused.
bool exited(std::int64_t pid) {
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(pid), &info,
               WEXITED | WNOHANG | WNOWAIT) != 0) {
    throw Error(ErrorKind::kWorkerLost,
                "proc: waitid(" + std::to_string(pid) +
                    ") failed: " + std::strerror(errno));
  }
  return info.si_pid == pid;
}

}  // namespace

ExitStatus terminate(std::int64_t pid, std::int64_t grace_ms) {
  if (pid <= 1) {
    throw Error(ErrorKind::kFatal,
                "proc: refusing to terminate pid " + std::to_string(pid) +
                    " (stale sentinel would signal the whole session)");
  }
  signal_group(pid, SIGTERM);
  const std::int64_t deadline = monotonic_ms() + grace_ms;
  while (!exited(pid) && monotonic_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  // Kill what is left of the group: the child if it outlived the grace
  // period, and any descendant that survived SIGTERM.
  signal_group(pid, SIGKILL);
  // SIGKILL cannot be blocked; the bounded wait is belt-and-braces against a
  // child stuck in an uninterruptible state.
  if (auto status = wait_reap(pid, 10'000)) return *status;
  ExitStatus lost;
  lost.pid = pid;
  lost.term_signal = SIGKILL;
  return lost;
}

}  // namespace sdd::proc
