// Crash-tolerant fleet orchestration over the filesystem work queue.
//
// The orchestrator enqueues tasks, forks/execs worker processes (the same
// binary re-run with a `fleet-worker` subcommand), and supervises them:
// stale leases are reclaimed (the stalled owner is SIGKILLed when it is one
// of our children), dead workers are respawned under a bounded budget,
// published results are validated before they count, and poison tasks land
// in dead/ after a bounded number of failures. The orchestrator itself keeps
// no authoritative state — everything lives in the queue directory — so a
// killed orchestrator can simply be re-run over the same directory and
// resumes where it left off, reusing every completed task.
//
// Fleet execution is OFF by default (SDD_FLEET_WORKERS=0 preserves the
// single-process behavior); results are byte-identical either way because
// task execution is deterministic and the assembly replays the serial
// floating-point order.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "fleet/queue.hpp"
#include "util/config.hpp"

namespace sdd::fleet {

#define SDD_FLEET_FIELDS(X)                                                   \
  X(std::int64_t, workers, 0, kRun, "0 = fleet off, run single-process")    \
  X(std::int64_t, lease_ms, 2000, kRun, "heartbeat lease window")           \
  X(std::int64_t, task_retry, 3, kRun, "failures before a task is quarantined") \
  X(std::int64_t, respawn_max, 16, kRun, "worker respawns before giving up") \
  X(std::int64_t, poll_ms, 50, kRun, "queue poll / lease sweep interval")   \
  X(std::filesystem::path, dir_override, {}, kRun, "queue dir; \"\" = derived per run")

struct FleetConfig {
  SDD_CONFIG_FIELDS(SDD_FLEET_FIELDS)

  bool enabled() const { return workers > 0; }

  // Defaults with kFleetEnv applied.
  static FleetConfig from_env();
};

inline constexpr config::EnvBinding kFleetEnv[] = {
    {"SDD_FLEET_WORKERS", "workers"},
    {"SDD_FLEET_LEASE_MS", "lease_ms"},
    {"SDD_FLEET_TASK_RETRY", "task_retry"},
    {"SDD_FLEET_RESPAWN_MAX", "respawn_max"},
    {"SDD_FLEET_POLL_MS", "poll_ms"},
    {"SDD_FLEET_DIR", "dir_override"},
};

struct FleetStats {
  std::int64_t enqueued = 0;   // tasks newly added this run
  std::int64_t reused = 0;     // tasks already done when enqueued (resume)
  std::int64_t completed = 0;  // results this run produced and validated
  std::int64_t rejected = 0;   // published results that failed validation
  std::int64_t reclaimed = 0;  // stale leases broken
  std::int64_t respawned = 0;  // workers restarted after dying
  std::int64_t dead = 0;       // tasks quarantined (queue total at exit)

  std::string to_string() const;
};

// Validates a published result in the orchestrator before it counts as
// complete (e.g. re-read the artifact through its checksum). Returning false
// rejects the result: the done marker is removed and the task requeued
// against its failure budget. An empty function accepts everything.
using ValidateFn = std::function<bool(const TaskSpec&)>;

// Executes one claimed task inside a worker process; throwing fails the
// task (release + retry budget). fleet::execute_task (fleet/stages.hpp) is
// the production executor; tests inject counting/failing lambdas.
using ExecuteFn = std::function<void(const TaskSpec&)>;

// Runs `tasks` to terminal state (done or dead) with `config.workers`
// spawned worker processes. Throws Error{kWorkerLost} when every worker is
// gone and the respawn budget is exhausted with work remaining, and
// Error{kInterrupted} on graceful shutdown (live workers are SIGTERMed
// first). Quarantined tasks do NOT throw — callers inspect stats.dead.
// When SDD_CHILD_FAULT is set, its value is forwarded to every worker as
// its SDD_FAULT (the orchestrator's own SDD_FAULT is not touched).
FleetStats orchestrate(const std::filesystem::path& dir,
                       const std::vector<TaskSpec>& tasks,
                       const FleetConfig& config,
                       const ValidateFn& validate = {});

// Worker loop: claim -> renew lease on a background thread -> execute ->
// complete, until every live task is terminal (returns 0) or a graceful
// shutdown is requested (throws Error{kInterrupted}). Also performs
// leaderless stale-lease reclaim. A worker process passes its
// orchestrator's pid: it then gets SIGKILL when that parent dies (a claimed
// task is left to lease expiry, as after kill -9) and throws
// Error{kWorkerLost} when the parent is already gone. Linux sends the
// parent-death signal when the forking *thread* exits, so orchestrate() must
// run on a thread that outlives its workers, as it does by returning only
// after they stop. 0 (in-process callers) watches nothing.
int worker_main(const std::filesystem::path& dir, const std::string& worker_id,
                const FleetConfig& config, const ExecuteFn& execute,
                std::int64_t orchestrator_pid = 0);

}  // namespace sdd::fleet
