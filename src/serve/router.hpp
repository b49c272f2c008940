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
// Determinism invariant (proved by scripts/soak.sh router): a request's
// tokens depend only on (variant, prompt, seed, options). Failover re-submits
// the request fresh on the next variant, so whichever variant completes it,
// the output is bit-identical to an unloaded single-request decode on that
// same variant — rerouting around chaos never changes bytes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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

struct RouterConfig {
  std::int64_t failover_max = 2;       // extra dispatch attempts per request
  std::int64_t cheap_deadline_ms = 60; // deadlines <= this prefer cheap variants
  std::int64_t poll_ms = 1;            // dispatcher tick while jobs in flight
  std::int64_t reroute_wait_ms = 5;    // backoff when no replica is eligible
  bool start_dispatcher = true;        // test seam: false = call start() later
  std::string spec_draft;              // variant that drafts for the others'
                                       // speculative decode ("" = off); takes
                                       // effect when server.spec_k > 0

  // Host each variant in its own `replica-worker` child process (VariantSpec
  // must carry checkpoint paths). Incompatible with spec_draft — the draft
  // pointer cannot cross a process boundary.
  bool cross_process = false;
  RemoteReplicaConfig remote;          // supervision knobs for cross-process

  BreakerConfig breaker;               // shared by every replica's breaker
  ServerConfig server;                 // shared by every replica's server

  // SDD_ROUTE_FAILOVER_MAX, SDD_ROUTE_CHEAP_DEADLINE_MS, SDD_SPEC_DRAFT,
  // SDD_REPLICA_PROCESS, plus BreakerConfig::from_env(),
  // ServerConfig::from_env(), and RemoteReplicaConfig::from_env().
  static RouterConfig from_env();
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
}

// Client handle to a routed request; resolved exactly once.
class RouteTicket {
 public:
  const RouteResponse& wait();
  bool wait_for(std::chrono::milliseconds timeout);
  // Cooperative abandon: also cancels the in-flight replica attempt.
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

  void dispatcher_main();
  void dispatch_loop();
  // Advances one job; returns true when the job reached a terminal state.
  bool process(const std::shared_ptr<detail::RouteJob>& job,
               std::chrono::steady_clock::time_point now);
  bool dispatch(detail::RouteJob& job,
                std::chrono::steady_clock::time_point now);
  void handle_outcome(detail::RouteJob& job, const Response& response,
                      std::chrono::steady_clock::time_point now);
  void fail_over(detail::RouteJob& job, const Response& response,
                 std::chrono::steady_clock::time_point now);
  std::vector<Candidate> ordered_candidates(const detail::RouteJob& job) const;
  void resolve(detail::RouteJob& job, Response response,
               const std::string& variant);
  void bump_stats(RequestState state);

  RouterConfig config_;
  QualityTable quality_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<detail::RouteJob>> incoming_;
  bool stopping_ = false;
  bool dispatcher_started_ = false;
  std::thread dispatcher_;

  mutable std::mutex stats_mutex_;
  RouterStats stats_;
};

}  // namespace sdd::serve
