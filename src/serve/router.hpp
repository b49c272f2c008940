// Replicated multi-variant serving: a health-checked router over N model
// replicas with circuit breakers, bounded failover, and degradation by
// routing.
//
// A VariantRouter owns one Replica (= InferenceServer + HealthBreaker) per
// hosted TransformerLM variant — typically the full model plus one or more
// depth-pruned variants recovered by self-data distillation. Clients call
// submit() once; a single dispatcher thread picks the variant:
//
//   * eligible = breaker dispatchable (healthy, degraded, half-open with a
//     free probe token, or open past its cooldown) and not already tried by
//     this request;
//   * ordering: healthy/half-open before degraded, then lower backpressure
//     load penalty, then highest quality-table score for the request's task
//     — or, when the request's deadline is at or under cheap_deadline_ms,
//     lowest cost (parameter count) first: under deadline pressure the
//     router degrades gracefully by sending work to a cheaper pruned
//     variant instead of failing it;
//   * a replica-attributed failure (internal error, hung-worker timeout,
//     NaN logits) or backpressure rejection triggers failover to the next
//     eligible variant, up to failover_max extra hops; the terminal typed
//     Response of the last attempt is always returned — no request is ever
//     lost, even when every variant is down.
//
// Completion is an event, never a poll. Each replica attempt's Ticket
// carries a completion hook (Ticket::on_terminal) that queues the request
// for the dispatcher and wakes it, on the same condition variable a submit
// notifies. Only parked requests carry timers — not yet dispatched, held by
// replica_slow chaos, or with no eligible replica (every breaker open and
// cooling, or half-open with its probe tokens taken) — and the dispatcher
// sleeps until the earliest of their deadlines and retry times, or until an
// event: a submit, a completion, a cancel, shutdown. With no eligible
// replica the retry time is the earliest breaker cooldown expiry; when only
// probe tokens are taken there is none, because the probe's own completion
// wakes the dispatcher.
//
// Determinism invariant (proved by scripts/soak.sh router): a request's
// tokens depend only on (variant, prompt, seed, options). Failover re-submits
// the request fresh on the next variant, so whichever variant completes it,
// the output is bit-identical to an unloaded single-request decode on that
// same variant — rerouting around chaos never changes bytes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/replica.hpp"
#include "serve/serve.hpp"

namespace sdd::serve {

// spec_draft takes effect when server.spec_k > 0.
//
// cross_process hosts each variant in its own `replica-worker` child
// process (VariantSpec must carry checkpoint paths); each worker serves with
// `server`, which the parent sends it. Incompatible with spec_draft — the
// draft pointer cannot cross a process boundary.
#define SDD_ROUTER_FIELDS(X)                                                  \
  X(std::int64_t, failover_max, 2, kRun, "extra dispatch attempts per request") \
  X(std::int64_t, cheap_deadline_ms, 60, kRun, "deadlines <= this go cheap") \
  X(bool, start_dispatcher, true, kRun, "test seam: false = call start() later") \
  X(std::string, spec_draft, {}, kRun, "variant drafting for the others; \"\" = off") \
  X(bool, cross_process, false, kRun, "one replica-worker process per variant") \
  X(RemoteReplicaConfig, remote, {}, kRun, "cross-process supervision")     \
  X(BreakerConfig, breaker, {}, kRun, "shared by every replica's breaker")  \
  X(ServerConfig, server, {}, kRun, "shared by every replica's server")

struct RouterConfig {
  SDD_CONFIG_FIELDS(SDD_ROUTER_FIELDS)

  // Defaults with kRouterEnv applied.
  static RouterConfig from_env();
};

// SDD_SERVE_HANG_MS is bound after SDD_STAGE_HANG_SEC, so it wins when both
// are set.
inline constexpr config::EnvBinding kRouterEnv[] = {
    {"SDD_ROUTE_FAILOVER_MAX", "failover_max"},
    {"SDD_ROUTE_CHEAP_DEADLINE_MS", "cheap_deadline_ms"},
    {"SDD_SPEC_DRAFT", "spec_draft"},
    {"SDD_REPLICA_PROCESS", "cross_process"},
    {"SDD_REPLICA_HEARTBEAT_MS", "remote.heartbeat_ms"},
    {"SDD_REPLICA_LEASE_MS", "remote.lease_ms"},
    {"SDD_REPLICA_RESPAWN_MAX", "remote.respawn_max"},
    {"SDD_REPLICA_BACKOFF_MS", "remote.backoff_ms"},
    {"SDD_REPLICA_BACKOFF_CAP_MS", "remote.backoff_cap_ms"},
    {"SDD_REPLICA_GRACE_MS", "remote.drain_grace_ms"},
    {"SDD_ROUTE_DEGRADED_FAILS", "breaker.degraded_after"},
    {"SDD_ROUTE_BREAKER_FAILS", "breaker.open_after"},
    {"SDD_ROUTE_BREAKER_COOLDOWN_MS", "breaker.cooldown_ms"},
    {"SDD_ROUTE_PROBE_MAX", "breaker.probe_max"},
    {"SDD_SERVE_QUEUE_CAP", "server.queue_capacity"},
    {"SDD_SERVE_MAX_BATCH", "server.max_batch"},
    {"SDD_SERVE_KV_BUDGET_MB", "server.kv_budget_bytes", 1 << 20},
    {"SDD_SERVE_DEADLINE_MS", "server.default_deadline_ms"},
    {"SDD_SERVE_DEGRADE_DEPTH", "server.degrade_queue_depth"},
    {"SDD_SERVE_DEGRADE_MAX_TOKENS", "server.degrade_max_new_tokens"},
    {"SDD_SERVE_NAN_GUARD", "server.nan_guard"},
    {"SDD_STAGE_HANG_SEC", "server.worker.hang_ms", 1000},
    {"SDD_SERVE_HANG_MS", "server.worker.hang_ms"},
    {"SDD_SPEC_K", "server.spec_k"},
};

// Static per-variant quality scores, loadable from eval-grid suite digests.
// File format, one block per variant:
//
//   variant <name>
//   metric <task> <accuracy>     (format_suite_digest lines, incl. average)
//
// Unknown variant/task lookups fall back: task -> "average" -> `fallback`.
class QualityTable {
 public:
  QualityTable() = default;

  // Throws Error{kCorruptArtifact} on malformed content / unreadable file.
  static QualityTable parse(const std::string& text);
  static QualityTable load(const std::string& path);

  void set(const std::string& variant, const std::string& task, double score);
  double score(const std::string& variant, const std::string& task,
               double fallback) const;
  bool has_variant(const std::string& variant) const;
  bool empty() const { return scores_.empty(); }

 private:
  std::map<std::string, std::map<std::string, double>> scores_;
};

// One routed request: the serving Request plus routing inputs.
struct RouteRequest {
  Request request;
  std::string task;     // quality-table column; "" = use the average score
  std::string variant;  // pin to this variant (no quality-based choice);
                        // failover may still move the request elsewhere
};

struct RouteResponse {
  Response response;    // terminal typed response of the last attempt
  std::string variant;  // replica that produced `response` ("" = none ran)
  std::int64_t hops = 0;     // failover dispatches after the first
  bool rerouted = false;     // hops > 0
};

namespace detail {
struct RouteJob;
struct DispatchQueue;
}

// Client handle to a routed request; resolved exactly once.
class RouteTicket {
 public:
  const RouteResponse& wait();
  bool wait_for(std::chrono::milliseconds timeout);
  // Cooperative abandon: cancels the in-flight replica attempt, or wakes
  // the dispatcher to resolve a parked request kCancelled at once. Safe
  // after the router is gone.
  void cancel();
  RequestState state() const;

 private:
  friend class VariantRouter;
  explicit RouteTicket(std::shared_ptr<detail::RouteJob> job);
  std::shared_ptr<detail::RouteJob> job_;
};

using RouteTicketPtr = std::shared_ptr<RouteTicket>;

struct RouterStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t timed_out = 0;
  std::int64_t cancelled = 0;
  std::int64_t rejected = 0;   // terminal rejections (incl. router shutdown)
  std::int64_t failed = 0;
  std::int64_t shed = 0;       // terminal shed outcomes (failover exhausted)
  std::int64_t failovers = 0;  // re-dispatches after a failed attempt
  std::int64_t exhausted = 0;  // requests that ran out of failover hops
  std::int64_t injected_failures = 0;  // chaos-injected pre-submit failures

  std::int64_t resolved() const {
    return completed + timed_out + cancelled + rejected + failed + shed;
  }
};

// Point-in-time view of one replica for CLIs / soak logs.
struct ReplicaSnapshot {
  std::string name;
  HealthState health = HealthState::kHealthy;
  ReplicaStats stats;
  ServerStats server;  // incl. speculative acceptance telemetry
  double quality = 0.0;
  std::int64_t cost = 0;
  bool drafts = false;  // this replica drafts for its siblings
  // Cross-process hosting telemetry (pid -1 / restarts 0 / age -1 for local).
  bool remote = false;
  std::int64_t pid = -1;
  std::int64_t restarts = 0;
  std::int64_t heartbeat_age_ms = -1;
};

// A variant to host: the router takes ownership of the model. Cross-process
// routing loads nothing in the parent — `model` stays default-constructed
// and `path` names the checkpoint the worker process loads.
struct VariantSpec {
  std::string name;
  nn::TransformerLM model;
  double quality = 0.5;  // fallback score when the table has no entry
  std::string path;           // checkpoint for cross-process hosting
  std::int64_t cost_hint = 0; // routing cost until the worker's HELLO
};

class VariantRouter {
 public:
  VariantRouter(std::vector<VariantSpec> variants, RouterConfig config,
                QualityTable quality = {});
  ~VariantRouter();

  VariantRouter(const VariantRouter&) = delete;
  VariantRouter& operator=(const VariantRouter&) = delete;

  // Never throws for overload or dead replicas: the ticket always resolves
  // with a terminal typed RouteResponse.
  RouteTicketPtr submit(RouteRequest request);

  // Spawns the dispatcher when the config deferred it (test seam).
  void start();
  // Stops accepting, resolves everything in flight or queued, joins the
  // dispatcher, then shuts the replica servers down. Idempotent.
  void shutdown();

  RouterStats stats() const;
  std::vector<ReplicaSnapshot> replicas() const;
  std::size_t replica_count() const { return replicas_.size(); }
  // nullptr when no replica has that name.
  Replica* replica(const std::string& name);

 private:
  struct Candidate;
  using JobPtr = std::shared_ptr<detail::RouteJob>;

  void dispatcher_main();
  // Runs until shutdown has drained every attempt; `parked` holds the jobs
  // that are waiting on a timer or an event, not on a replica.
  void dispatch_loop(std::vector<JobPtr>& parked);
  // A parked job: resolve it (cancel, deadline) or dispatch it once its
  // retry time has come.
  void advance(const JobPtr& job, std::chrono::steady_clock::time_point now);
  void dispatch(const JobPtr& job, std::chrono::steady_clock::time_point now);
  void handle_outcome(const JobPtr& job, const Response& response,
                      std::chrono::steady_clock::time_point now);
  void fail_over(const JobPtr& job, const Response& response,
                 std::chrono::steady_clock::time_point now);
  std::vector<Candidate> ordered_candidates(const detail::RouteJob& job) const;
  // When an undispatchable job should try again: the earliest breaker
  // cooldown expiry, or never (time_point::max) when only a probe's
  // completion can free a replica.
  std::chrono::steady_clock::time_point retry_at(
      std::chrono::steady_clock::time_point now) const;
  void resolve(detail::RouteJob& job, Response response,
               const std::string& variant);
  void reject_stopped(detail::RouteJob& job);
  void bump_stats(RequestState state);

  RouterConfig config_;
  QualityTable quality_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  // Submissions, completions and cancels reach the dispatcher here; every
  // job holds it too. Its mutex also guards the two members below.
  std::shared_ptr<detail::DispatchQueue> queue_;
  bool dispatcher_started_ = false;
  std::thread dispatcher_;

  mutable std::mutex stats_mutex_;
  RouterStats stats_;
};

}  // namespace sdd::serve
