// Cross-process serving replica: a supervised `replica-worker` child process
// decoding requests behind the same Ticket interface a local InferenceServer
// hands out.
//
// Parent side (RemoteReplica): spawns the worker over a CLOEXEC socketpair
// (util/ipc frames, util/proc spawn), forwards submitted requests as REQUEST
// frames, and runs one pump thread that demultiplexes RESPONSE frames back
// onto tickets while supervising liveness:
//
//   * heartbeat lease: the worker beats every heartbeat_ms; a beat older
//     than lease_ms (CLOCK_MONOTONIC, as in fleet/queue) means the worker is
//     wedged — SIGKILL, fail the in-flight tickets with retryable
//     worker_lost, respawn after supervisor::backoff_delay_ms;
//   * exited worker (its pidfd wakes the pump) / torn frame / EOF: same
//     recovery path. Every death invokes
//     the owner's on_process_failure callback exactly once so the routing
//     layer can trip the replica's HealthBreaker — a process crash, not just
//     a failed request, quarantines the variant;
//   * rolling upgrade (swap_model): SIGTERM drains the worker — it stops
//     reading requests, lets its server finish the in-flight batch, answers
//     every request it accepted, and exits 72 (the graceful-drain
//     convention) — then the respawn picks up the new weights. Requests
//     arriving mid-drain fail fast with worker_lost so the router serves
//     them from sibling variants.
//
// Worker side (replica_worker_main): reads the parent's ServerConfig from
// the first frame, loads the variant, serves it with an ordinary
// InferenceServer built from that config, sends HELLO (parameter count =
// routing cost), heartbeats from a dedicated thread, and streams back one
// RESPONSE frame per resolved ticket. Its loop is event-driven: each
// ticket's completion hook (Ticket::on_terminal) queues the request id and
// writes an eventfd, and the loop poll()s the socket, that eventfd and the
// graceful-shutdown self-pipe with no timeout. Outputs are produced by the
// same decode path as in-process serving, so per-variant bytes are
// identical across the process boundary — the soak asserts this end to end.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.hpp"
#include "util/proc.hpp"

namespace sdd::serve {

// Frame types on the replica wire; the payload codecs are in serve::detail
// below.
enum class ReplicaFrame : std::uint8_t {
  kHello = 1,      // child -> parent: i64 param_count, i64 n_layers
  kHeartbeat = 2,  // child -> parent: empty
  kRequest = 3,    // parent -> child: u64 id + serialized Request
  kResponse = 4,   // child -> parent: u64 id + serialized Response
  kCancel = 5,     // parent -> child: u64 id
  kConfig = 6,     // parent -> child, first frame: ServerConfig text form
};

// child_fault_spec is the SDD_FAULT spec for the FIRST spawned worker
// generation only; respawned workers always get an explicitly empty
// SDD_FAULT so an injected crash cannot re-fire forever and starve the
// recovery path under test.
#define SDD_REMOTE_FIELDS(X)                                                  \
  X(std::int64_t, heartbeat_ms, 25, kRun, "worker beat period")             \
  X(std::int64_t, lease_ms, 400, kRun, "silence beyond this = wedged worker") \
  X(std::int64_t, respawn_max, 8, kRun, "consecutive unexpected deaths tolerated") \
  X(std::int64_t, backoff_ms, 50, kRun, "respawn backoff, doubles per death") \
  X(std::int64_t, backoff_cap_ms, 2000, kRun, "respawn backoff ceiling")    \
  X(std::int64_t, drain_grace_ms, 3000, kRun, "SIGTERM -> SIGKILL drain budget") \
  X(std::string, child_fault_spec, {}, kRun, "first worker generation's SDD_FAULT")

struct RemoteReplicaConfig {
  SDD_CONFIG_FIELDS(SDD_REMOTE_FIELDS)

  // Extra KEY=VALUE environment for every spawned worker (e.g.
  // SDD_LOG_LEVEL). The worker's ServerConfig comes from the parent over
  // the channel, not from this environment.
  std::vector<std::string> env_overrides;

  // Test seam: spawn the worker without exec'ing a binary (fork; child calls
  // replica_worker_main on child_fd, then _exit). Returns the child pid,
  // which the replica adopts (proc::Child::adopt).
  // Production default re-execs proc::kSelfExe with the `replica-worker`
  // subcommand.
  std::function<std::int64_t(int child_fd, const std::string& model_path,
                             const std::string& name)>
      spawn_fn;
};

struct RemoteStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;      // RESPONSE frames matched to tickets
  std::int64_t worker_lost = 0;    // tickets failed over on a lost worker
  std::int64_t respawns = 0;       // spawns after the first
  std::int64_t lease_expiries = 0; // deaths detected by heartbeat silence
  std::int64_t swaps = 0;          // rolling-upgrade drains initiated
};

class RemoteReplica {
 public:
  // `on_process_failure` fires once per unexpected worker death (exit,
  // lease expiry, torn frame), from the thread that detected it. It must not
  // call back into this RemoteReplica.
  // Every worker generation serves with `server`.
  RemoteReplica(std::string name, std::string model_path,
                RemoteReplicaConfig config, const ServerConfig& server,
                std::function<void(const std::string&)> on_process_failure);
  ~RemoteReplica();

  RemoteReplica(const RemoteReplica&) = delete;
  RemoteReplica& operator=(const RemoteReplica&) = delete;

  // Never blocks on the worker: with no live worker (dead, draining, or
  // shut down) the ticket resolves immediately with retryable worker_lost,
  // which the router turns into failover to a sibling variant.
  TicketPtr submit(Request request);

  // Rolling upgrade: drain the current worker (SIGTERM -> finish in-flight
  // batch -> exit 72), respawn with `new_path`, and wait for the new
  // generation's HELLO up to `timeout_ms`. False on timeout (the respawn
  // keeps trying in the background regardless).
  bool swap_model(const std::string& new_path, std::int64_t timeout_ms);

  // Drains (bounded by drain_grace_ms), stops the pump, reaps the worker,
  // and fails any still-pending tickets. Idempotent; also run by the dtor.
  void shutdown();

  // Telemetry for the route health table.
  std::int64_t pid() const;              // -1 when no live worker
  std::int64_t restarts() const;         // spawns after the first
  std::int64_t heartbeat_age_ms() const; // -1 when no live worker
  std::int64_t cost() const;             // HELLO param_count; 0 until known
  bool ready() const;                    // live worker that completed HELLO
  RemoteStats stats() const;

 private:
  struct Pending {
    std::shared_ptr<detail::Job> job;
    bool cancel_sent = false;
  };

  void pump_main();
  void sweep();
  void handle_frame(std::uint8_t type, const std::string& payload);
  // Pump thread, or shutdown once the pump is joined (submit's write
  // failures SIGKILL and let the pump observe the death).
  void handle_death(const std::string& reason);
  void spawn_locked();

  const std::string name_;
  const RemoteReplicaConfig config_;
  const std::string server_text_;  // config::to_text of the worker's config
  const std::function<void(const std::string&)> on_process_failure_;

  mutable std::mutex mutex_;     // state below
  std::condition_variable cv_;   // HELLO, death, resolved ticket, stopping_
  std::string model_path_;
  int fd_ = -1;                  // parent end; -1 = no live worker
  proc::Child child_;            // worker; signalled only under mutex_
  std::int64_t generation_ = 0;  // spawn count
  bool hello_received_ = false;
  std::int64_t cost_ = 0;
  std::int64_t last_beat_ = 0;   // proc::monotonic_ms of the last frame
  bool draining_ = false;        // SIGTERM sent, waiting for exit 72
  std::int64_t drain_started_ = 0;
  std::int64_t consecutive_deaths_ = 0;  // resets on HELLO
  std::int64_t next_spawn_at_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Pending> pending_;
  bool stopping_ = false;        // no new submits / respawns
  bool pump_exit_ = false;
  RemoteStats stats_;

  std::mutex write_mutex_;       // serializes frame writes to fd_
  std::thread pump_;
};

namespace detail {

// REQUEST and RESPONSE payload codecs, one schema for both endpoints. A
// decoder throws Error{worker_lost} on a payload that overruns or outlasts
// the schema, and on a response whose state is not terminal or whose state
// or error byte lies outside its enum: the supervisor treats a peer that
// sends one like any other torn channel.
std::string encode_request(std::uint64_t id, const Request& request);
std::uint64_t decode_request(const std::string& payload, Request* out);
std::string encode_response(std::uint64_t id, const Response& response);
std::uint64_t decode_response(const std::string& payload, Response* out);

}  // namespace detail

// Worker entry point: serve `model_path`, with the ServerConfig the parent
// sends as the first frame, over `fd` until the channel closes
// (exit 0) or a graceful SIGTERM drain has answered every accepted request
// (exit 72). Invoked by
// `sdd_cli replica-worker` and by fork-based test/soak harnesses; the caller
// is expected to have installed util/signals graceful shutdown.
int replica_worker_main(const std::string& model_path, const std::string& name,
                        int fd, std::int64_t heartbeat_ms);

}  // namespace sdd::serve
