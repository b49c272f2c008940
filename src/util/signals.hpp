// Graceful signal handling for the CLI binaries and fleet workers.
//
// install_graceful_shutdown() routes SIGTERM/SIGINT into a cooperative
// cancellation flag instead of the default die-mid-write behavior: the
// handler only sets an atomic, and long-running loops observe it at their
// next supervisor::heartbeat() (training steps, eval items, fleet claim
// polls), unwind with Error{kInterrupted}, and exit through the normal typed
// exit-code path (error_kind_exit_code -> 72). In-flight artifact commits
// finish atomically, checkpoints land on their usual cadence, and a restart
// resumes from them. A second signal while the first is still being honored
// hard-exits with the shell convention 128+signo — an escape hatch for a
// wedged process.
//
// Library code never installs handlers; only binaries' main() opt in, so
// tests and embedders keep default signal semantics. interrupt_requested()
// is a single relaxed atomic load and always false when nothing was
// installed.
#pragma once

#include <chrono>

namespace sdd::signals {

// Installs SIGTERM/SIGINT handlers (idempotent).
void install_graceful_shutdown();

// True once SIGTERM or SIGINT arrived after install_graceful_shutdown().
bool interrupt_requested() noexcept;

// The signal number behind interrupt_requested(), 0 when none.
int interrupt_signal() noexcept;

// Sleeps up to `timeout`, returning early once SIGTERM or SIGINT arrives
// (the handler writes a self-pipe that this polls, so the wait ends whichever
// thread took the signal); returns interrupt_requested(). Without installed
// handlers it is a plain sleep. May also return early on another signal.
bool wait_for_interrupt(std::chrono::milliseconds timeout);

// Read end of the self-pipe the handlers write: it turns readable once
// SIGTERM or SIGINT arrives, so an event loop can poll it next to its own
// descriptors. -1 when nothing was installed (poll ignores a negative fd).
int interrupt_fd() noexcept;

// Test seam: clears the interrupt flag and drains the self-pipe (handlers
// stay installed).
void reset_interrupt_for_test() noexcept;

// SIG_IGN for SIGPIPE: a serving process must see EPIPE from a vanished
// peer as an error return, not a process-killing signal. Idempotent.
void ignore_sigpipe();

}  // namespace sdd::signals
