#include "util/signals.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <thread>

namespace sdd::signals {
namespace {

std::atomic<int> g_interrupt_signal{0};
// Self-pipe: the handler writes one byte that wait_for_interrupt() polls.
std::atomic<int> g_wake_read{-1};
std::atomic<int> g_wake_write{-1};

// Async-signal-safe: one atomic store and one write() on the first signal,
// _Exit on the second. No locks, no allocation, no stdio.
void on_signal(int signum) {
  int expected = 0;
  if (!g_interrupt_signal.compare_exchange_strong(expected, signum,
                                                  std::memory_order_relaxed)) {
    std::_Exit(128 + signum);
  }
  const int fd = g_wake_write.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const int saved_errno = errno;
    const char byte = 1;
    [[maybe_unused]] const ssize_t written = ::write(fd, &byte, 1);
    errno = saved_errno;
  }
}

}  // namespace

void install_graceful_shutdown() {
  static const bool piped = [] {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) != 0) return false;
    g_wake_read.store(fds[0]);
    g_wake_write.store(fds[1]);
    return true;
  }();
  (void)piped;
  struct sigaction action = {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: blocking syscalls return EINTR so poll loops wake
  // promptly instead of sleeping out their full timeout.
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

bool interrupt_requested() noexcept {
  return g_interrupt_signal.load(std::memory_order_relaxed) != 0;
}

int interrupt_signal() noexcept {
  return g_interrupt_signal.load(std::memory_order_relaxed);
}

int interrupt_fd() noexcept { return g_wake_read.load(std::memory_order_relaxed); }

bool wait_for_interrupt(std::chrono::milliseconds timeout) {
  const int fd = interrupt_fd();
  if (fd < 0) {
    std::this_thread::sleep_for(timeout);
  } else if (!interrupt_requested()) {
    pollfd wake{fd, POLLIN, 0};
    ::poll(&wake, 1, static_cast<int>(std::clamp<std::int64_t>(timeout.count(), 0, INT_MAX)));
  }
  return interrupt_requested();
}

void reset_interrupt_for_test() noexcept {
  g_interrupt_signal.store(0, std::memory_order_relaxed);
  const int fd = interrupt_fd();
  char drain[64];
  while (fd >= 0 && ::read(fd, drain, sizeof drain) > 0) {
  }
}

void ignore_sigpipe() {
  struct sigaction action = {};
  action.sa_handler = SIG_IGN;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPIPE, &action, nullptr);
}

}  // namespace sdd::signals
