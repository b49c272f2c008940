// A serving replica: one TransformerLM variant behind its own
// InferenceServer, wrapped with a circuit-breaker health state machine the
// VariantRouter consults before dispatching.
//
// Health model (see docs/serving.md for the full diagram):
//
//   healthy --consecutive failures >= degraded_after--> degraded
//   degraded --consecutive failures >= open_after-----> open
//   open --cooldown_ms elapsed------------------------> half-open (probing)
//   half-open --probe succeeds------------------------> healthy
//   half-open --probe fails---------------------------> open (cooldown anew)
//   any non-open state --success----------------------> healthy
//
// "Failure" means an outcome that is the replica's fault per the typed error
// taxonomy (util/error): kFailed with internal/timeout kinds (hung worker,
// NaN logits, decode exceptions). Backpressure (resource_exhausted shed /
// reject) never trips the breaker — an overloaded replica is healthy, just
// busy — it only raises a load penalty the router uses to spread requests.
// Client-attributed outcomes (own-deadline expiry, cancellation) are neutral.
//
// The breaker is a standalone class so the state machine is unit-testable
// with a fake clock, independent of any real server.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "nn/transformer.hpp"
#include "serve/remote_replica.hpp"
#include "serve/serve.hpp"

namespace sdd::serve {

enum class HealthState {
  kHealthy,   // full traffic
  kDegraded,  // recent failures; deprioritized but still dispatchable
  kOpen,      // quarantined: no traffic until the cooldown expires
  kHalfOpen,  // cooldown over: up to probe_max trial requests in flight
};

std::string_view health_state_name(HealthState state);

#define SDD_BREAKER_FIELDS(X)                                                 \
  X(std::int64_t, degraded_after, 1, kRun, "consecutive failures -> degraded") \
  X(std::int64_t, open_after, 3, kRun, "consecutive failures -> open")      \
  X(std::int64_t, cooldown_ms, 250, kRun, "quarantine before half-open probing") \
  X(std::int64_t, probe_max, 1, kRun, "concurrent half-open trial requests")

struct BreakerConfig {
  SDD_CONFIG_FIELDS(SDD_BREAKER_FIELDS)

  // Test seam: breaker time source (fake clocks make cooldown transitions
  // deterministic). Defaults to steady_clock::now.
  std::function<std::chrono::steady_clock::time_point()> now_fn;
};

// Thread-safe circuit breaker; every router dispatch brackets the request
// with try_begin() .. record()/abandon() so probe accounting stays exact.
class HealthBreaker {
 public:
  enum class Outcome {
    kSuccess,       // completed generation
    kFailure,       // replica-attributed failure (internal / hung / NaN)
    kBackpressure,  // resource_exhausted shed/reject: busy, not broken
    kNeutral,       // client-attributed (own deadline, cancel); no change
  };

  explicit HealthBreaker(BreakerConfig config);

  HealthState state() const;

  // Would a dispatch be admitted right now? Open counts as dispatchable once
  // its cooldown has expired (the dispatch itself performs the half-open
  // transition in try_begin). Peek only — takes no probe token.
  bool dispatchable() const;

  // Claims the right to dispatch one request. Returns false when the breaker
  // is open (cooldown pending) or half-open with all probe tokens taken.
  // On success *is_probe reports whether this request is a half-open probe;
  // the caller must pass that flag back to record()/abandon().
  bool try_begin(bool* is_probe);

  // Applies one request outcome. Success resets the failure streak (and
  // closes a half-open breaker); failure extends it (and re-opens a
  // half-open breaker immediately); backpressure only bumps the load
  // penalty; neutral releases the probe token and changes nothing else.
  void record(Outcome outcome, bool is_probe);

  // Releases a claimed dispatch that was never submitted (e.g. an injected
  // pre-submit fault handled elsewhere). Equivalent to a neutral record.
  void abandon(bool is_probe);

  // Force-open, bypassing the failure streak: a process-level liveness
  // verdict (reaped pid, expired heartbeat lease, torn channel) quarantines
  // the replica immediately. The normal cooldown -> half-open -> probe path
  // readmits it once a respawned worker answers a probe.
  void trip();

  // Decaying count of recent backpressure events; the router prefers the
  // least-loaded replica among equals. Halved on every success.
  std::int64_t load_penalty() const;

  std::int64_t consecutive_failures() const;
  // Milliseconds until an open breaker half-opens; 0 when not open.
  std::int64_t cooldown_remaining_ms() const;

 private:
  std::chrono::steady_clock::time_point now() const;

  BreakerConfig config_;
  mutable std::mutex mutex_;
  HealthState state_ = HealthState::kHealthy;
  std::int64_t fails_ = 0;          // consecutive replica-attributed failures
  std::int64_t penalty_ = 0;        // decaying backpressure pressure
  std::int64_t probes_inflight_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
};

struct ReplicaStats {
  std::int64_t dispatched = 0;        // requests routed here (incl. probes)
  std::int64_t completed = 0;
  std::int64_t breaker_failures = 0;  // replica-attributed failures
  std::int64_t backpressure = 0;      // resource_exhausted shed/rejects
  std::int64_t breaker_opens = 0;     // times the breaker tripped open
  std::int64_t probes = 0;            // half-open trial dispatches
  std::int64_t probe_successes = 0;   // probes that closed the breaker
  double latency_ema_ms = 0.0;        // EMA of completed-request decode time
};

// One hosted variant behind the breaker and per-replica routing stats, in
// one of two hosting modes:
//   * local  — owns the model weights and an in-process InferenceServer;
//   * remote — owns a RemoteReplica supervising a `replica-worker` child
//     process (process-isolated weights, crash respawn, rolling upgrades).
// The router never cares which: submit()/record_outcome() are identical, and
// a remote worker death trips the breaker through on_process_death().
// Not movable — the server/supervisor capture `this`-adjacent references;
// the router holds unique_ptrs.
class Replica {
 public:
  // Local replica. `draft`, when non-null, points at a sibling replica's
  // model that drafts for this server's speculative decode; the router
  // guarantees it outlives this replica's server.
  Replica(std::string name, nn::TransformerLM model, double quality,
          const ServerConfig& server_config, const BreakerConfig& breaker,
          const nn::TransformerLM* draft = nullptr);

  // Remote replica: the weights live in the worker process; the parent only
  // keeps the checkpoint path, and the worker serves with `server_config`.
  // `cost_hint` seeds the routing cost until the worker's HELLO reports its
  // true parameter count.
  Replica(std::string name, std::string model_path, double quality,
          std::int64_t cost_hint, const RemoteReplicaConfig& remote_config,
          const ServerConfig& server_config, const BreakerConfig& breaker);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  const std::string& name() const { return name_; }
  double quality() const { return quality_; }
  bool remote() const { return remote_ != nullptr; }
  // Routing cost proxy: parameter count (a deeper variant decodes slower).
  // Remote: the worker's HELLO-reported count, or the spec's hint until the
  // first HELLO lands.
  std::int64_t cost() const;
  // Local mode only (the weights of a remote replica live in the worker).
  const nn::TransformerLM& model() const { return *model_; }
  InferenceServer& server() { return *server_; }

  HealthState health() const { return breaker_.state(); }
  HealthBreaker& breaker() { return breaker_; }
  const HealthBreaker& breaker() const { return breaker_; }

  // try_begin + dispatch accounting in one step; false = breaker refused.
  bool try_begin_dispatch(bool* is_probe);
  TicketPtr submit(Request request);

  // Feeds one terminal response back into the breaker and the stats.
  void record_outcome(HealthBreaker::Outcome outcome, bool is_probe,
                      const Response& response);
  // Releases a claimed dispatch that never reached submit().
  void abandon_dispatch(bool is_probe) { breaker_.abandon(is_probe); }

  // Rolling upgrade (remote only): drain the worker, respawn with `path`,
  // wait up to `timeout_ms` for the new generation's HELLO. False for local
  // replicas and on timeout.
  bool swap_model(const std::string& path, std::int64_t timeout_ms);

  // Shuts down whichever host this replica runs (server or worker process).
  void shutdown_host();

  // Server-side telemetry: the local server's stats, or a minimal synthesis
  // from the remote supervisor's counters (submitted/completed/failed).
  ServerStats server_stats() const;

  // Process telemetry for the health table; -1 / 0 / -1 for local replicas.
  std::int64_t pid() const { return remote_ ? remote_->pid() : -1; }
  std::int64_t restart_count() const { return remote_ ? remote_->restarts() : 0; }
  std::int64_t heartbeat_age_ms() const {
    return remote_ ? remote_->heartbeat_age_ms() : -1;
  }

  ReplicaStats stats() const;

 private:
  // Remote worker death: trip the breaker and count the open (invoked by the
  // RemoteReplica supervisor from whichever thread detected the death).
  void on_process_death(const std::string& reason);

  std::string name_;
  double quality_;
  std::int64_t cost_hint_ = 0;
  // Declaration order matters: the server holds a reference to the model.
  // Exactly one of (model_+server_) / remote_ is set.
  std::unique_ptr<nn::TransformerLM> model_;
  std::unique_ptr<InferenceServer> server_;
  std::unique_ptr<RemoteReplica> remote_;
  HealthBreaker breaker_;

  mutable std::mutex stats_mutex_;
  ReplicaStats stats_;
};

}  // namespace sdd::serve
