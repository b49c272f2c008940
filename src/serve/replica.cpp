#include "serve/replica.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace sdd::serve {

using Clock = std::chrono::steady_clock;

std::string_view health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kOpen:
      return "open";
    case HealthState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

// ---- breaker ---------------------------------------------------------------

HealthBreaker::HealthBreaker(BreakerConfig config)
    : config_{std::move(config)} {
  config_.degraded_after = std::max<std::int64_t>(1, config_.degraded_after);
  config_.open_after =
      std::max(config_.degraded_after, config_.open_after);
  config_.cooldown_ms = std::max<std::int64_t>(1, config_.cooldown_ms);
  config_.probe_max = std::max<std::int64_t>(1, config_.probe_max);
}

Clock::time_point HealthBreaker::now() const {
  return config_.now_fn ? config_.now_fn() : Clock::now();
}

HealthState HealthBreaker::state() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return state_;
}

bool HealthBreaker::dispatchable() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  switch (state_) {
    case HealthState::kHealthy:
    case HealthState::kDegraded:
      return true;
    case HealthState::kOpen:
      // Cooled-down open counts: try_begin will flip it to half-open.
      return now() - opened_at_ >=
             std::chrono::milliseconds{config_.cooldown_ms};
    case HealthState::kHalfOpen:
      return probes_inflight_ < config_.probe_max;
  }
  return false;
}

bool HealthBreaker::try_begin(bool* is_probe) {
  const std::lock_guard<std::mutex> lock{mutex_};
  *is_probe = false;
  switch (state_) {
    case HealthState::kHealthy:
    case HealthState::kDegraded:
      return true;
    case HealthState::kOpen:
      if (now() - opened_at_ <
          std::chrono::milliseconds{config_.cooldown_ms}) {
        return false;
      }
      // Cooldown elapsed: this dispatch becomes the first half-open probe.
      state_ = HealthState::kHalfOpen;
      probes_inflight_ = 1;
      *is_probe = true;
      return true;
    case HealthState::kHalfOpen:
      if (probes_inflight_ >= config_.probe_max) return false;
      ++probes_inflight_;
      *is_probe = true;
      return true;
  }
  return false;
}

void HealthBreaker::record(Outcome outcome, bool is_probe) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (is_probe && probes_inflight_ > 0) --probes_inflight_;
  switch (outcome) {
    case Outcome::kSuccess:
      fails_ = 0;
      penalty_ /= 2;
      if (state_ != HealthState::kOpen) state_ = HealthState::kHealthy;
      return;
    case Outcome::kFailure:
      ++fails_;
      if (state_ == HealthState::kHalfOpen || fails_ >= config_.open_after) {
        // A failed probe re-opens immediately; a fresh streak trips open.
        state_ = HealthState::kOpen;
        opened_at_ = now();
        probes_inflight_ = 0;
      } else if (fails_ >= config_.degraded_after &&
                 state_ == HealthState::kHealthy) {
        state_ = HealthState::kDegraded;
      }
      return;
    case Outcome::kBackpressure:
      ++penalty_;
      return;
    case Outcome::kNeutral:
      return;
  }
}

void HealthBreaker::abandon(bool is_probe) {
  record(Outcome::kNeutral, is_probe);
}

void HealthBreaker::trip() {
  const std::lock_guard<std::mutex> lock{mutex_};
  state_ = HealthState::kOpen;
  opened_at_ = now();
  probes_inflight_ = 0;
  // Keep consecutive_failures() truthful for logs: a liveness trip is at
  // least as bad as a full failure streak.
  fails_ = std::max(fails_, config_.open_after);
}

std::int64_t HealthBreaker::load_penalty() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return penalty_;
}

std::int64_t HealthBreaker::consecutive_failures() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return fails_;
}

std::int64_t HealthBreaker::cooldown_remaining_ms() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (state_ != HealthState::kOpen) return 0;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           now() - opened_at_)
                           .count();
  return std::max<std::int64_t>(0, config_.cooldown_ms - elapsed);
}

// ---- replica ---------------------------------------------------------------

Replica::Replica(std::string name, nn::TransformerLM model, double quality,
                 const ServerConfig& server_config,
                 const BreakerConfig& breaker,
                 const nn::TransformerLM* draft)
    : name_{std::move(name)},
      quality_{quality},
      model_{std::make_unique<nn::TransformerLM>(std::move(model))},
      server_{std::make_unique<InferenceServer>(*model_, server_config, draft)},
      breaker_{breaker} {}

Replica::Replica(std::string name, std::string model_path, double quality,
                 std::int64_t cost_hint,
                 const RemoteReplicaConfig& remote_config,
                 const ServerConfig& server_config, const BreakerConfig& breaker)
    : name_{std::move(name)},
      quality_{quality},
      cost_hint_{cost_hint},
      breaker_{breaker} {
  // Constructed in the body, after every member: the supervisor's failure
  // callback may fire from its pump thread as soon as it exists.
  remote_ = std::make_unique<RemoteReplica>(
      name_, std::move(model_path), remote_config, server_config,
      [this](const std::string& reason) { on_process_death(reason); });
}

std::int64_t Replica::cost() const {
  if (!remote_) return model_->param_count();
  const std::int64_t hello = remote_->cost();
  return hello > 0 ? hello : cost_hint_;
}

TicketPtr Replica::submit(Request request) {
  return remote_ ? remote_->submit(std::move(request))
                 : server_->submit(std::move(request));
}

bool Replica::swap_model(const std::string& path, std::int64_t timeout_ms) {
  return remote_ && remote_->swap_model(path, timeout_ms);
}

void Replica::shutdown_host() {
  if (remote_) {
    remote_->shutdown();
  } else {
    server_->shutdown();
  }
}

ServerStats Replica::server_stats() const {
  if (!remote_) return server_->stats();
  const RemoteStats remote = remote_->stats();
  ServerStats stats;
  stats.submitted = remote.submitted;
  stats.completed = remote.completed;
  stats.failed = remote.worker_lost;
  return stats;
}

void Replica::on_process_death(const std::string& reason) {
  const HealthState before = breaker_.state();
  breaker_.trip();
  log_warn("route: replica '", name_, "' quarantined (", reason,
           "); breaker opened pending respawn + probe");
  const std::lock_guard<std::mutex> lock{stats_mutex_};
  ++stats_.breaker_failures;
  if (before != HealthState::kOpen) ++stats_.breaker_opens;
}

bool Replica::try_begin_dispatch(bool* is_probe) {
  if (!breaker_.try_begin(is_probe)) return false;
  const std::lock_guard<std::mutex> lock{stats_mutex_};
  ++stats_.dispatched;
  if (*is_probe) ++stats_.probes;
  return true;
}

void Replica::record_outcome(HealthBreaker::Outcome outcome, bool is_probe,
                             const Response& response) {
  const HealthState before = breaker_.state();
  breaker_.record(outcome, is_probe);
  const HealthState after = breaker_.state();
  if (after == HealthState::kOpen && before != HealthState::kOpen) {
    log_warn("route: replica '", name_, "' breaker opened after ",
             breaker_.consecutive_failures(), " consecutive failures");
  }
  if (is_probe && outcome == HealthBreaker::Outcome::kSuccess) {
    log_info("route: replica '", name_, "' probe succeeded; breaker closed");
  }
  const std::lock_guard<std::mutex> lock{stats_mutex_};
  switch (outcome) {
    case HealthBreaker::Outcome::kSuccess:
      ++stats_.completed;
      if (is_probe) ++stats_.probe_successes;
      stats_.latency_ema_ms =
          stats_.latency_ema_ms == 0.0
              ? static_cast<double>(response.decode_ms)
              : 0.8 * stats_.latency_ema_ms + 0.2 * response.decode_ms;
      break;
    case HealthBreaker::Outcome::kFailure:
      ++stats_.breaker_failures;
      break;
    case HealthBreaker::Outcome::kBackpressure:
      ++stats_.backpressure;
      break;
    case HealthBreaker::Outcome::kNeutral:
      break;
  }
  if (after == HealthState::kOpen && before != HealthState::kOpen) {
    ++stats_.breaker_opens;
  }
}

ReplicaStats Replica::stats() const {
  const std::lock_guard<std::mutex> lock{stats_mutex_};
  return stats_;
}

}  // namespace sdd::serve
