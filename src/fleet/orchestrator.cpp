#include "fleet/orchestrator.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/proc.hpp"
#include "util/signals.hpp"
#include "util/supervisor.hpp"

namespace sdd::fleet {

namespace fs = std::filesystem;

FleetConfig FleetConfig::from_env() {
  return config::from_env<FleetConfig>(kFleetEnv);
}

std::string FleetStats::to_string() const {
  return "enqueued=" + std::to_string(enqueued) +
         " reused=" + std::to_string(reused) +
         " completed=" + std::to_string(completed) +
         " rejected=" + std::to_string(rejected) +
         " reclaimed=" + std::to_string(reclaimed) +
         " respawned=" + std::to_string(respawned) +
         " dead=" + std::to_string(dead);
}

namespace {

struct WorkerSlot {
  proc::Child child;         // empty = no live process
  std::int64_t spawn_at = 0;  // monotonic ms; a respawn waits out its backoff
};

// SIGTERM then SIGKILL every live child; used on every exit path so an
// orchestrator failure never leaks worker processes it owns. (A SIGKILLed
// orchestrator runs no exit path: its workers die by their parent-death
// signal, see worker_main, and the next run reclaims their leases.)
void shutdown_workers(std::vector<WorkerSlot>& slots, std::int64_t grace_ms) {
  for (WorkerSlot& slot : slots) {
    try {
      slot.child.terminate(grace_ms);
    } catch (const Error&) {
      // The Child's destructor still SIGKILLs and reaps what is left.
    }
  }
}

proc::Child spawn_worker(const fs::path& dir, const FleetConfig& config,
                         std::int64_t slot, std::int64_t generation) {
  const std::string worker_id =
      "w" + std::to_string(slot) + "-g" + std::to_string(generation);
  std::vector<std::string> argv = {
      proc::kSelfExe, "fleet-worker",
      "--dir",    dir.string(),
      "--worker", worker_id,
      "--lease",  std::to_string(config.lease_ms),
      "--retry",  std::to_string(config.task_retry),
      "--poll",   std::to_string(config.poll_ms),
      "--orchestrator", std::to_string(::getpid()),
  };
  std::vector<std::string> env;
  // Worker-side faults arrive via SDD_CHILD_FAULT so the orchestrator's own
  // process (and any model construction done before orchestrate()) stays
  // fault-free.
  if (const char* child_fault = std::getenv(fault::kChildEnv)) {
    env.push_back(std::string{"SDD_FAULT="} + child_fault);
  }
  return proc::Child::spawn(argv, env);
}

}  // namespace

FleetStats orchestrate(const fs::path& dir, const std::vector<TaskSpec>& tasks,
                       const FleetConfig& config, const ValidateFn& validate) {
  if (!config.enabled()) {
    throw Error(ErrorKind::kFatal,
                "orchestrate() called with fleet disabled (workers=0)");
  }
  WorkQueue queue{dir};
  FleetStats stats;
  for (const TaskSpec& task : tasks) {
    if (queue.enqueue(task)) {
      ++stats.enqueued;
    } else if (queue.is_done(task.id)) {
      ++stats.reused;  // completed by a previous run; skipped bit-identically
    }
  }
  // Done before this run (a resumed queue dir): validated like fresh
  // results, but counted in `completed` only once a worker recomputes them.
  std::set<std::string> done_before;
  for (const std::string& id : queue.task_ids()) {
    if (queue.is_done(id)) done_before.insert(id);
  }
  log_info("fleet: orchestrating ", tasks.size(), " task(s) in ", dir.string(),
           " (", stats.reused, " already done) with ", config.workers,
           " worker(s), lease ", config.lease_ms, " ms");

  std::vector<WorkerSlot> slots{static_cast<std::size_t>(config.workers)};
  std::int64_t generation = 0;
  std::set<std::string> validated;  // done markers already accepted this run
  // Respawns back off from the poll interval up to the lease window.
  const supervisor::SupervisorConfig backoff{.backoff_ms = config.poll_ms,
                                             .backoff_cap_ms = config.lease_ms};

  try {
    while (true) {
      supervisor::heartbeat();  // graceful shutdown + watchdog liveness

      // Reap exited workers; their pidfds woke the poll below.
      for (WorkerSlot& slot : slots) {
        if (!slot.child) continue;
        if (const auto status = slot.child.try_reap()) {
          if (!status->clean()) {
            log_warn("fleet: worker pid ", status->pid, " died (exit ",
                     status->exit_code, ", signal ", status->term_signal, ")");
          }
          slot.child = proc::Child{};
          slot.spawn_at = proc::monotonic_ms() +
                          supervisor::backoff_delay_ms(backoff, "fleet", stats.respawned);
        }
      }

      // Break stale leases; SIGKILL stalled-but-alive owners we spawned so
      // the slot frees up (a worker that still renews is never stale).
      for (const ReclaimedLease& lease :
           queue.reclaim_stale(config.lease_ms, config.task_retry)) {
        ++stats.reclaimed;
        for (WorkerSlot& slot : slots) {
          if (slot.child && slot.child.pid() == lease.claim.pid) {
            log_warn("fleet: SIGKILLing stalled worker pid ", slot.child.pid());
            slot.child.signal(SIGKILL);
          }
        }
      }

      // Validate newly published results before they count as complete.
      for (const std::string& id : queue.task_ids()) {
        if (!queue.is_done(id) || validated.count(id) > 0) continue;
        const TaskSpec task = queue.read_task(id);
        if (validate && !validate(task)) {
          ++stats.rejected;
          log_warn("fleet: rejected result for '", id,
                   "' (validation failed); requeueing");
          queue.requeue_done(id, config.task_retry, "result failed validation");
          done_before.erase(id);  // the recomputation is this run's
          continue;
        }
        validated.insert(id);
        if (done_before.count(id) == 0) {
          ++stats.completed;
          fault::on_fleet_completion();
        }
      }

      const QueueCounts counts = queue.counts();
      if (queue.all_terminal() &&
          static_cast<std::int64_t>(validated.size()) == counts.done) {
        break;
      }

      // Refill empty slots while work remains, under the respawn budget.
      // The initial spawns are "free"; only restarts after the first
      // generation count against the budget.
      const std::int64_t now = proc::monotonic_ms();
      std::int64_t timeout_ms = std::min<std::int64_t>(config.poll_ms, INT_MAX);
      std::vector<pollfd> exits;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        WorkerSlot& slot = slots[i];
        const bool is_respawn = generation >= config.workers;
        if (!slot.child && (!is_respawn || stats.respawned < config.respawn_max)) {
          if (now < slot.spawn_at) {
            timeout_ms = std::min(timeout_ms, slot.spawn_at - now);
          } else {
            slot.child = spawn_worker(dir, config, static_cast<std::int64_t>(i),
                                      generation++);
            if (is_respawn) ++stats.respawned;
          }
        }
        if (slot.child) exits.push_back({slot.child.fd(), POLLIN, 0});
      }
      if (exits.empty() && stats.respawned >= config.respawn_max) {
        throw Error(ErrorKind::kWorkerLost,
                    "fleet: all workers gone, respawn budget (" +
                        std::to_string(config.respawn_max) +
                        ") exhausted with work remaining in " + dir.string());
      }

      // Sleep until a worker exits, a respawn is due, or the next lease
      // sweep and done-marker check.
      ::poll(exits.data(), exits.size(), static_cast<int>(timeout_ms));
    }
  } catch (...) {
    shutdown_workers(slots, config.lease_ms);
    throw;
  }
  shutdown_workers(slots, config.lease_ms);
  stats.dead = queue.counts().dead;
  log_info("fleet: run finished: ", stats.to_string());
  return stats;
}

int worker_main(const fs::path& dir, const std::string& worker_id,
                const FleetConfig& config, const ExecuteFn& execute,
                std::int64_t orchestrator_pid) {
  if (orchestrator_pid > 0) {
    // Die with the orchestrator. The signal is armed after the exec, so an
    // orchestrator that died before it shows as a changed parent instead.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != orchestrator_pid) {
      throw Error(ErrorKind::kWorkerLost,
                  "fleet-worker: orchestrator pid " +
                      std::to_string(orchestrator_pid) + " is gone");
    }
  }
  WorkQueue queue{dir};
  const std::int64_t renew_ms = std::max<std::int64_t>(config.lease_ms / 4, 10);
  while (true) {
    supervisor::heartbeat();  // throws Error{kInterrupted} on SIGTERM/SIGINT
    // Leaderless recovery: any worker may break a stale lease; the link()
    // re-claim race elects exactly one new owner.
    queue.reclaim_stale(config.lease_ms, config.task_retry);
    const auto task = queue.try_claim(worker_id);
    if (!task) {
      if (queue.all_terminal()) return 0;
      // Ends early on SIGTERM, so the heartbeat above exits 72 at once
      // instead of after the orchestrator's whole lease_ms grace.
      signals::wait_for_interrupt(std::chrono::milliseconds{config.poll_ms});
      continue;
    }
    log_info("fleet[", worker_id, "]: claimed '", task->id, "'");
    fault::on_fleet_claim(dir);  // worker_kill9 / worker_stall fire here

    // Renew the lease on a background thread so a long task execution never
    // goes stale. Renewal failures are swallowed: a missed beat risks a
    // benign duplicate execution, never a wrong result.
    std::mutex renew_mutex;
    std::condition_variable renew_cv;
    bool running = true;
    std::thread renewer{[&] {
      std::unique_lock<std::mutex> lock{renew_mutex};
      while (!renew_cv.wait_for(lock, std::chrono::milliseconds{renew_ms},
                                [&] { return !running; })) {
        try {
          queue.renew(task->id, worker_id);
        } catch (const std::exception&) {
        }
      }
    }};
    // Idempotent: complete() can throw after the renewer was stopped.
    const auto stop_renewer = [&] {
      {
        const std::lock_guard<std::mutex> lock{renew_mutex};
        running = false;
      }
      renew_cv.notify_all();
      if (renewer.joinable()) renewer.join();
    };

    try {
      execute(*task);
      stop_renewer();
      queue.complete(task->id, worker_id);
      log_info("fleet[", worker_id, "]: completed '", task->id, "'");
    } catch (const Error& e) {
      stop_renewer();
      if (e.kind() == ErrorKind::kInterrupted) {
        queue.release(task->id);  // graceful stop: no failure counted
        throw;
      }
      queue.release_failed(task->id, config.task_retry, e.what());
    } catch (const std::exception& e) {
      stop_renewer();
      queue.release_failed(task->id, config.task_retry, e.what());
    }
  }
}

}  // namespace sdd::fleet
