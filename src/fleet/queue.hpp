// Filesystem-backed work queue for the multi-process fleet.
//
// Layout under the queue directory:
//
//   tasks/<id>.task     task spec, sorted `key=value` lines. Never deleted on
//                       completion — the done marker is the terminal state —
//                       and moved to dead/ when the task is quarantined.
//   claims/<id>.claim   lease: `pid=`, `worker=`, `beat=` (CLOCK_MONOTONIC
//                       ms). Written to a staging file and link()ed into
//                       place, so exactly one worker wins a claim and a claim
//                       is never seen half-written; renewed by atomically
//                       rewriting the file with a fresh beat. A claim that
//                       does not parse is stale at once.
//   done/<id>.done      completion marker, written atomically BEFORE the
//                       claim is released. Idempotent: a late duplicate
//                       completion of a reclaimed task is benign because task
//                       results are deterministic and written atomically.
//   dead/<id>.task      poison quarantine (plus `<id>.reason`): the task
//                       failed `retry_budget` times and is out of the queue.
//   attempts/<id>.n     failure counter. Incremented only by whoever actually
//                       removed the claim file (the unlink is the mutex), so
//                       a worker-side release and an orchestrator-side
//                       reclaim of the same lease count one failure, not two.
//
// Liveness is leaderless: any process (worker or orchestrator) may reclaim a
// lease whose beat is older than the lease window. That is safe because the
// claim removal + link() re-claim race always elects exactly one new
// owner, and duplicate execution of a task is benign (see done/ above). Only
// the orchestrator ever signals pids — workers never kill anything.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sdd::fleet {

struct TaskSpec {
  std::string id;  // file-name stem; [A-Za-z0-9._-] only
  std::map<std::string, std::string> fields;

  // Sorted `key=value` lines (std::map order), stable across runs.
  std::string serialize() const;
  static TaskSpec parse(const std::string& id, const std::string& text);

  // Field access; throws Error{kFatal} on a missing key (a malformed task
  // spec is a bug, not a transient condition).
  const std::string& field(const std::string& key) const;
  std::int64_t field_int(const std::string& key) const;
};

struct ClaimInfo {
  std::int64_t pid = -1;
  std::string worker;
  std::int64_t beat_ms = -1;  // proc::monotonic_ms() at last renewal
};

struct QueueCounts {
  std::int64_t tasks = 0;    // live task files (quarantined ones excluded)
  std::int64_t claimed = 0;
  std::int64_t done = 0;
  std::int64_t dead = 0;
};

// One stale lease broken by reclaim_stale().
struct ReclaimedLease {
  std::string id;
  ClaimInfo claim;          // the dead owner (pid lets the orchestrator kill
                            // a stalled-but-alive child)
  bool quarantined = false; // true when the failure exhausted the budget
};

class WorkQueue {
 public:
  // Creates the directory layout; safe to construct over an existing queue
  // (orchestrator restart resumes from whatever state is on disk).
  explicit WorkQueue(std::filesystem::path dir);

  const std::filesystem::path& dir() const { return dir_; }

  // Adds a task. Returns false (and writes nothing) when the task already
  // exists, is done, or is quarantined — re-enqueueing after a restart is a
  // no-op that lets completed work be reused.
  bool enqueue(const TaskSpec& task);

  // Scans live tasks in sorted id order and link()s a claim into place for the
  // first unclaimed, not-done one. Workers normally start the scan at an
  // offset derived from `worker_id` to spread contention; under the
  // claim_race fault every worker starts at index 0 and pauses between
  // selecting a task and creating the claim, forcing a many-way race that
  // exactly one worker may win.
  std::optional<TaskSpec> try_claim(const std::string& worker_id);

  // Rewrites the claim with a fresh beat. A renewal that discovers the claim
  // gone or owned by someone else (the lease was reclaimed) is a silent
  // no-op: the old owner has lost, and its eventual duplicate completion is
  // benign.
  void renew(const std::string& id, const std::string& worker_id);

  // Publishes the done marker, then releases the claim. A crash between the
  // two leaves a done task with a stale claim; reclaim_stale() sees the done
  // marker and just drops the claim without counting a failure.
  void complete(const std::string& id, const std::string& worker_id);

  // Releases a claim after a failed execution and counts one failure.
  // Returns true when the failure budget is exhausted and the task was
  // quarantined to dead/.
  bool release_failed(const std::string& id, std::int64_t retry_budget,
                      const std::string& why);

  // Releases a claim without counting a failure (graceful shutdown: the task
  // didn't fail, the worker was asked to stop).
  void release(const std::string& id);

  // Breaks every lease whose beat is older than `lease_ms` or later than
  // now, and every claim that does not parse. Claims on done
  // tasks are dropped silently; the rest count one failure each (possibly
  // quarantining). Returns the broken leases so the orchestrator can SIGKILL
  // stalled-but-alive children.
  std::vector<ReclaimedLease> reclaim_stale(std::int64_t lease_ms,
                                            std::int64_t retry_budget);

  // Rejects a published result (the orchestrator's validator failed it):
  // removes the done marker and counts one failure. Returns true when the
  // task was quarantined.
  bool requeue_done(const std::string& id, std::int64_t retry_budget,
                    const std::string& why);

  bool is_done(const std::string& id) const;
  std::optional<ClaimInfo> read_claim(const std::string& id) const;
  std::int64_t attempts(const std::string& id) const;
  QueueCounts counts() const;

  // True when every live task has a done marker (quarantined tasks left the
  // queue, so a fully-drained queue with dead tasks is still terminal; the
  // caller decides whether dead > 0 is an error).
  bool all_terminal() const;

  std::vector<std::string> task_ids() const;  // sorted
  TaskSpec read_task(const std::string& id) const;

  std::filesystem::path task_path(const std::string& id) const;
  std::filesystem::path claim_path(const std::string& id) const;
  std::filesystem::path done_path(const std::string& id) const;
  std::filesystem::path dead_path(const std::string& id) const;

 private:
  // Counts one failure against `id`; quarantines when the budget is
  // exhausted. Best-effort on I/O errors (an uncountable failure means one
  // extra retry, never a lost task).
  bool bump_attempts(const std::string& id, std::int64_t retry_budget,
                     const std::string& why);
  void quarantine_task(const std::string& id, const std::string& why);

  std::filesystem::path dir_;
};

}  // namespace sdd::fleet
