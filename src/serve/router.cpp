#include "serve/router.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace sdd::serve {

using Clock = std::chrono::steady_clock;

namespace detail {

// The dispatcher's inbox. Every job holds it as well as the router, so a
// completion hook or a cancel that lands after the router is gone still
// touches live memory. `mutex` is a leaf lock for the hooks: nothing is
// locked or called while it is held.
struct DispatchQueue {
  std::mutex mutex;
  std::condition_variable cv;  // submit, completion, cancel, shutdown
  std::deque<std::shared_ptr<RouteJob>> incoming;   // submitted
  std::deque<std::shared_ptr<RouteJob>> completed;  // replica attempt resolved
  bool rescan = false;  // a parked job was cancelled
  bool stopping = false;

  void push_completed(std::shared_ptr<RouteJob> job) {
    {
      const std::lock_guard<std::mutex> lock{mutex};
      completed.push_back(std::move(job));
    }
    cv.notify_one();
  }
};

// Shared between the client-facing RouteTicket and the dispatcher. Resolved
// exactly once; `terminal` + cv is the only client synchronization point.
// Fields below the mutex block are dispatcher-private routing state.
struct RouteJob {
  RouteRequest route;
  Clock::time_point submitted_at{};
  std::int64_t deadline_ms = 0;  // effective (request or server default)
  std::atomic<bool> cancel_requested{false};
  std::shared_ptr<DispatchQueue> queue;

  std::mutex mutex;
  std::condition_variable cv;
  bool terminal = false;
  RouteResponse result;
  TicketPtr active_ticket;  // set/cleared by the dispatcher, read by cancel()

  // Dispatcher-only routing state (never touched by client threads).
  std::int64_t hops = 0;
  std::vector<bool> tried;
  std::int64_t active_replica = -1;
  bool active_probe = false;
  bool transit_delayed = false;  // replica_slow chaos applied once per request
  // A parked job's retry time: epoch = now, max = on the next event only.
  Clock::time_point not_before{};
  std::string last_variant;

  bool is_terminal() {
    const std::lock_guard<std::mutex> lock{mutex};
    return terminal;
  }
};

}  // namespace detail

// ---- config ----------------------------------------------------------------

RouterConfig RouterConfig::from_env() {
  return config::from_env<RouterConfig>(kRouterEnv);
}

// ---- quality table ---------------------------------------------------------

QualityTable QualityTable::parse(const std::string& text) {
  QualityTable table;
  std::istringstream in{text};
  std::string line;
  std::string variant;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields{line};
    std::string tag;
    if (!(fields >> tag)) continue;  // blank line
    if (tag == "variant") {
      if (!(fields >> variant)) {
        throw Error(ErrorKind::kCorruptArtifact,
                    "quality table line " + std::to_string(line_no) +
                        ": 'variant' without a name");
      }
      table.scores_[variant];  // a variant may legitimately have no rows yet
    } else if (tag == "metric") {
      std::string task;
      double score = 0.0;
      if (variant.empty() || !(fields >> task >> score)) {
        throw Error(ErrorKind::kCorruptArtifact,
                    "quality table line " + std::to_string(line_no) +
                        ": expected 'metric <task> <score>' under a variant");
      }
      table.scores_[variant][task] = score;
    } else {
      throw Error(ErrorKind::kCorruptArtifact,
                  "quality table line " + std::to_string(line_no) +
                      ": unknown tag '" + tag + "'");
    }
  }
  return table;
}

QualityTable QualityTable::load(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw Error(ErrorKind::kCorruptArtifact,
                "cannot open quality table '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

void QualityTable::set(const std::string& variant, const std::string& task,
                       double score) {
  scores_[variant][task] = score;
}

double QualityTable::score(const std::string& variant, const std::string& task,
                           double fallback) const {
  const auto variant_it = scores_.find(variant);
  if (variant_it == scores_.end()) return fallback;
  if (!task.empty()) {
    const auto task_it = variant_it->second.find(task);
    if (task_it != variant_it->second.end()) return task_it->second;
  }
  const auto avg_it = variant_it->second.find("average");
  if (avg_it != variant_it->second.end()) return avg_it->second;
  return fallback;
}

bool QualityTable::has_variant(const std::string& variant) const {
  return scores_.find(variant) != scores_.end();
}

// ---- ticket ----------------------------------------------------------------

RouteTicket::RouteTicket(std::shared_ptr<detail::RouteJob> job)
    : job_{std::move(job)} {}

const RouteResponse& RouteTicket::wait() {
  std::unique_lock<std::mutex> lock{job_->mutex};
  job_->cv.wait(lock, [this] { return job_->terminal; });
  return job_->result;
}

bool RouteTicket::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock{job_->mutex};
  return job_->cv.wait_for(lock, timeout, [this] { return job_->terminal; });
}

void RouteTicket::cancel() {
  job_->cancel_requested.store(true, std::memory_order_release);
  TicketPtr active;
  {
    const std::lock_guard<std::mutex> lock{job_->mutex};
    active = job_->active_ticket;
  }
  if (active) {
    // Resolves at the replica's next token boundary; the completion wakes
    // the dispatcher. A dispatch racing this cancel forwards it itself.
    active->cancel();
    return;
  }
  detail::DispatchQueue& queue = *job_->queue;
  {
    const std::lock_guard<std::mutex> lock{queue.mutex};
    queue.rescan = true;
  }
  queue.cv.notify_one();
}

RequestState RouteTicket::state() const {
  const std::lock_guard<std::mutex> lock{job_->mutex};
  return job_->result.response.state;
}

// ---- router ----------------------------------------------------------------

struct VariantRouter::Candidate {
  std::size_t index = 0;
  int tried = 0;        // untried replicas first
  int unpinned = 0;     // the pinned variant (if any) before the rest
  int health_rank = 0;  // healthy / probing before degraded
  std::int64_t penalty = 0;
  double quality = 0.0;
  std::int64_t cost = 0;
};

VariantRouter::VariantRouter(std::vector<VariantSpec> variants,
                             RouterConfig config, QualityTable quality)
    : config_{std::move(config)},
      quality_{std::move(quality)},
      queue_{std::make_shared<detail::DispatchQueue>()} {
  if (variants.empty()) {
    throw Error(ErrorKind::kFatal, "router needs at least one variant");
  }
  config_.failover_max = std::max<std::int64_t>(0, config_.failover_max);
  if (config_.cross_process) {
    if (!config_.spec_draft.empty()) {
      throw Error(ErrorKind::kFatal,
                  "cross-process replicas cannot share a speculative draft "
                  "(the draft pointer cannot cross a process boundary); "
                  "unset SDD_SPEC_DRAFT or SDD_REPLICA_PROCESS");
    }
    // One `replica-worker` child per variant. Chaos (SDD_CHILD_FAULT)
    // targets exactly one variant's first worker generation, the one its
    // replica_idx names, so the soak can assert that the siblings absorb
    // the failover.
    const std::string child_fault = env_string(fault::kChildEnv, "");
    const std::int64_t fault_index =
        fault::env_spec(fault::kChildEnv).value(fault::Directive::replica_idx);
    replicas_.resize(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
      VariantSpec& spec = variants[i];
      if (spec.path.empty()) {
        throw Error(ErrorKind::kFatal,
                    "cross-process variant '" + spec.name +
                        "' needs a checkpoint path");
      }
      RemoteReplicaConfig remote = config_.remote;
      if (!child_fault.empty() &&
          static_cast<std::int64_t>(i) == fault_index) {
        remote.child_fault_spec = child_fault;
      }
      replicas_[i] = std::make_unique<Replica>(
          std::move(spec.name), std::move(spec.path), spec.quality,
          spec.cost_hint, remote, config_.server, config_.breaker);
    }
    if (config_.start_dispatcher) start();
    return;
  }
  // Speculative pairing: one variant (typically the deepest-pruned,
  // SDD-recovered model) drafts for every sibling's verify loop. Its
  // replica is constructed first so the siblings can hold a pointer to its
  // weights; vector order still matches `variants` so replica indices (and
  // chaos targeting by index) are unaffected. shutdown() stops every
  // server before replicas_ is destroyed, so the cross-replica pointer
  // never dangles.
  std::size_t draft_index = variants.size();
  if (!config_.spec_draft.empty()) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      if (variants[i].name == config_.spec_draft) {
        draft_index = i;
        break;
      }
    }
    if (draft_index == variants.size()) {
      throw Error(ErrorKind::kFatal, "speculative draft variant '" +
                                         config_.spec_draft +
                                         "' is not among the hosted variants");
    }
  }
  replicas_.resize(variants.size());
  const nn::TransformerLM* draft_model = nullptr;
  if (draft_index < variants.size()) {
    VariantSpec& spec = variants[draft_index];
    replicas_[draft_index] = std::make_unique<Replica>(
        std::move(spec.name), std::move(spec.model), spec.quality,
        config_.server, config_.breaker);
    draft_model = &replicas_[draft_index]->model();
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (i == draft_index) continue;
    VariantSpec& spec = variants[i];
    replicas_[i] = std::make_unique<Replica>(
        std::move(spec.name), std::move(spec.model), spec.quality,
        config_.server, config_.breaker, draft_model);
  }
  if (config_.start_dispatcher) start();
}

VariantRouter::~VariantRouter() { shutdown(); }

void VariantRouter::start() {
  const std::lock_guard<std::mutex> lock{queue_->mutex};
  if (dispatcher_started_ || queue_->stopping) return;
  dispatcher_started_ = true;
  dispatcher_ = std::thread{&VariantRouter::dispatcher_main, this};
}

Replica* VariantRouter::replica(const std::string& name) {
  for (const auto& r : replicas_) {
    if (r->name() == name) return r.get();
  }
  return nullptr;
}

RouterStats VariantRouter::stats() const {
  const std::lock_guard<std::mutex> lock{stats_mutex_};
  return stats_;
}

std::vector<ReplicaSnapshot> VariantRouter::replicas() const {
  std::vector<ReplicaSnapshot> out;
  out.reserve(replicas_.size());
  for (const auto& r : replicas_) {
    ReplicaSnapshot snap;
    snap.name = r->name();
    snap.health = r->health();
    snap.stats = r->stats();
    snap.server = r->server_stats();
    snap.quality = r->quality();
    snap.cost = r->cost();
    snap.drafts = !config_.spec_draft.empty() && r->name() == config_.spec_draft;
    snap.remote = r->remote();
    snap.pid = r->pid();
    snap.restarts = r->restart_count();
    snap.heartbeat_age_ms = r->heartbeat_age_ms();
    out.push_back(std::move(snap));
  }
  return out;
}

RouteTicketPtr VariantRouter::submit(RouteRequest request) {
  auto job = std::make_shared<detail::RouteJob>();
  job->route = std::move(request);
  // The routing task doubles as the serving-layer telemetry label, so
  // per-task speculative acceptance lands in the replica's ServerStats.
  if (job->route.request.task.empty()) {
    job->route.request.task = job->route.task;
  }
  job->submitted_at = Clock::now();
  job->queue = queue_;
  job->deadline_ms = job->route.request.deadline_ms > 0
                         ? job->route.request.deadline_ms
                         : config_.server.default_deadline_ms;
  job->tried.assign(replicas_.size(), false);
  RouteTicketPtr ticket{new RouteTicket{job}};
  {
    const std::lock_guard<std::mutex> lock{stats_mutex_};
    ++stats_.submitted;
  }

  if (!job->route.variant.empty() && replica(job->route.variant) == nullptr) {
    Response response;
    response.state = RequestState::kRejected;
    response.error = ErrorKind::kFatal;
    response.message = "unknown variant '" + job->route.variant + "'";
    resolve(*job, std::move(response), "");
    return ticket;
  }

  bool rejected_stopping = false;
  {
    const std::lock_guard<std::mutex> lock{queue_->mutex};
    if (queue_->stopping) {
      rejected_stopping = true;
    } else {
      queue_->incoming.push_back(job);
    }
  }
  if (rejected_stopping) {
    Response response;
    response.state = RequestState::kRejected;
    response.error = ErrorKind::kResourceExhausted;
    response.retryable = true;
    response.message = "router shutting down";
    resolve(*job, std::move(response), "");
  } else {
    queue_->cv.notify_one();
  }
  return ticket;
}

void VariantRouter::shutdown() {
  std::thread dispatcher;
  {
    // Claim the thread object under the lock (concurrent shutdown() calls
    // must not both join the same std::thread).
    const std::lock_guard<std::mutex> lock{queue_->mutex};
    queue_->stopping = true;
    dispatcher = std::move(dispatcher_);
  }
  queue_->cv.notify_all();
  if (dispatcher.joinable()) dispatcher.join();
  // Without a dispatcher (start() never ran, or it died) nothing drains the
  // incoming queue; resolve leftovers so no client blocks forever.
  std::deque<JobPtr> leftover;
  {
    const std::lock_guard<std::mutex> lock{queue_->mutex};
    leftover.swap(queue_->incoming);
  }
  for (const auto& job : leftover) reject_stopped(*job);
  for (const auto& r : replicas_) r->shutdown_host();
  // A dispatcher that died left its in-flight attempts behind; their
  // replicas have resolved them by now, so their jobs end here.
  {
    const std::lock_guard<std::mutex> lock{queue_->mutex};
    leftover.swap(queue_->completed);
  }
  for (const auto& job : leftover) reject_stopped(*job);
}

void VariantRouter::reject_stopped(detail::RouteJob& job) {
  Response response;
  response.state = RequestState::kRejected;
  response.error = ErrorKind::kResourceExhausted;
  response.retryable = true;
  response.message = "router stopped before the request ran";
  resolve(job, std::move(response), "");
}

void VariantRouter::bump_stats(RequestState state) {
  const std::lock_guard<std::mutex> lock{stats_mutex_};
  switch (state) {
    case RequestState::kCompleted:
      ++stats_.completed;
      break;
    case RequestState::kTimeout:
      ++stats_.timed_out;
      break;
    case RequestState::kCancelled:
      ++stats_.cancelled;
      break;
    case RequestState::kShed:
      ++stats_.shed;
      break;
    case RequestState::kRejected:
      ++stats_.rejected;
      break;
    case RequestState::kFailed:
      ++stats_.failed;
      break;
    case RequestState::kQueued:
    case RequestState::kRunning:
      break;
  }
}

void VariantRouter::resolve(detail::RouteJob& job, Response response,
                            const std::string& variant) {
  {
    const std::lock_guard<std::mutex> lock{job.mutex};
    if (job.terminal) return;
    job.result.response = std::move(response);
    job.result.variant = variant;
    job.result.hops = job.hops;
    job.result.rerouted = job.hops > 0;
    job.active_ticket.reset();
    // Stats current before the client unblocks (lock order: job.mutex ->
    // stats_mutex_, matching InferenceServer::resolve).
    bump_stats(job.result.response.state);
    job.terminal = true;
  }
  job.cv.notify_all();
}

void VariantRouter::dispatcher_main() {
  std::vector<JobPtr> parked;
  try {
    dispatch_loop(parked);
  } catch (const std::exception& e) {
    // The dispatcher must never die silently with clients parked on
    // tickets: mark the router stopped and fail everything it holds. Jobs
    // still on a replica end in shutdown(), once their replicas stop.
    log_error("route: dispatcher died (", e.what(), "); failing queued jobs");
    {
      const std::lock_guard<std::mutex> lock{queue_->mutex};
      queue_->stopping = true;
      parked.insert(parked.end(), queue_->incoming.begin(), queue_->incoming.end());
      parked.insert(parked.end(), queue_->completed.begin(), queue_->completed.end());
      queue_->incoming.clear();
      queue_->completed.clear();
    }
    for (const auto& job : parked) {
      Response response;
      response.state = RequestState::kFailed;
      response.error = ErrorKind::kFatal;
      response.message = std::string{"router dispatcher died: "} + e.what();
      resolve(*job, std::move(response), "");
    }
  }
}

void VariantRouter::dispatch_loop(std::vector<JobPtr>& parked) {
  detail::DispatchQueue& queue = *queue_;
  std::size_t dispatched = 0;  // jobs whose replica attempt is in flight
  bool stopping = false;
  Clock::time_point wake = Clock::time_point::max();  // earliest parked timer
  while (true) {
    {
      std::unique_lock<std::mutex> lock{queue.mutex};
      const auto woken = [&] {
        return !queue.incoming.empty() || !queue.completed.empty() ||
               queue.rescan || queue.stopping != stopping;
      };
      // Shutdown resolved every parked job; it ends once the attempts in
      // flight have come back (those clients get real results).
      if (stopping && dispatched == 0 && !woken()) return;
      if (wake == Clock::time_point::max()) {
        queue.cv.wait(lock, woken);
      } else {
        queue.cv.wait_until(lock, wake, woken);
      }
      // This pass: the parked jobs, then completed attempts (the only jobs
      // here that are on a replica), then new submissions.
      parked.insert(parked.end(), queue.completed.begin(), queue.completed.end());
      parked.insert(parked.end(), queue.incoming.begin(), queue.incoming.end());
      queue.completed.clear();
      queue.incoming.clear();
      queue.rescan = false;
      stopping = queue.stopping;
    }
    const Clock::time_point now = Clock::now();
    for (const JobPtr& job : parked) {
      if (job->active_replica < 0) {
        advance(job, now);
        continue;
      }
      --dispatched;
      TicketPtr ticket;
      {
        const std::lock_guard<std::mutex> lock{job->mutex};
        ticket = job->active_ticket;
      }
      handle_outcome(job, ticket->wait(), now);
    }

    wake = Clock::time_point::max();
    const auto settled = [&](const JobPtr& job) {
      if (job->active_replica >= 0) {
        ++dispatched;
        return true;
      }
      if (job->is_terminal()) return true;
      if (stopping) {
        reject_stopped(*job);  // a job that could not dispatch now never will
        return true;
      }
      wake = std::min(wake, job->not_before);
      if (job->deadline_ms > 0) {
        wake = std::min(wake, job->submitted_at +
                                  std::chrono::milliseconds{job->deadline_ms});
      }
      return false;
    };
    std::erase_if(parked, settled);
  }
}

void VariantRouter::advance(const JobPtr& jobp, Clock::time_point now) {
  detail::RouteJob& job = *jobp;
  if (job.cancel_requested.load(std::memory_order_acquire)) {
    Response response;
    response.state = RequestState::kCancelled;
    response.message = "cancelled before dispatch";
    resolve(job, std::move(response), job.last_variant);
    return;
  }
  if (job.deadline_ms > 0 &&
      now - job.submitted_at >= std::chrono::milliseconds{job.deadline_ms}) {
    Response response;
    response.state = RequestState::kTimeout;
    response.error = ErrorKind::kTimeout;
    response.retryable = true;
    response.message = "deadline expired while routing";
    resolve(job, std::move(response), job.last_variant);
    return;
  }
  if (now >= job.not_before) dispatch(jobp, now);
}

std::vector<VariantRouter::Candidate> VariantRouter::ordered_candidates(
    const detail::RouteJob& job) const {
  std::vector<Candidate> candidates;
  candidates.reserve(replicas_.size());
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = *replicas_[i];
    if (!r.breaker().dispatchable()) continue;
    Candidate c;
    c.index = i;
    c.tried = job.tried[i] ? 1 : 0;
    c.unpinned = (!job.route.variant.empty() && job.route.variant == r.name())
                     ? 0
                     : 1;
    c.health_rank = r.health() == HealthState::kDegraded ? 1 : 0;
    c.penalty = r.breaker().load_penalty();
    c.quality = quality_.score(r.name(), job.route.task, r.quality());
    c.cost = r.cost();
    candidates.push_back(c);
  }
  // Deadline pressure flips the tail key from best-quality to cheapest:
  // a cheaper pruned variant decodes faster, so the request degrades
  // gracefully by routing instead of blowing its deadline on the big model.
  const bool cheap = job.deadline_ms > 0 &&
                     job.deadline_ms <= config_.cheap_deadline_ms;
  std::sort(candidates.begin(), candidates.end(),
            [cheap](const Candidate& a, const Candidate& b) {
              if (a.tried != b.tried) return a.tried < b.tried;
              if (a.unpinned != b.unpinned) return a.unpinned < b.unpinned;
              if (a.health_rank != b.health_rank) {
                return a.health_rank < b.health_rank;
              }
              if (a.penalty != b.penalty) return a.penalty < b.penalty;
              if (cheap) {
                if (a.cost != b.cost) return a.cost < b.cost;
              } else if (a.quality != b.quality) {
                return a.quality > b.quality;
              }
              return a.index < b.index;
            });
  return candidates;
}

void VariantRouter::dispatch(const JobPtr& jobp, Clock::time_point now) {
  detail::RouteJob& job = *jobp;
  for (const Candidate& candidate : ordered_candidates(job)) {
    Replica& r = *replicas_[candidate.index];
    bool is_probe = false;
    if (!r.try_begin_dispatch(&is_probe)) continue;

    const auto idx = static_cast<std::int64_t>(candidate.index);
    if (fault::should_fail_replica(idx)) {
      // Chaos: the dispatch dies before reaching the replica's queue. The
      // breaker sees a replica-attributed failure and the request fails
      // over, exactly like a real transport/worker loss.
      Response injected;
      injected.state = RequestState::kFailed;
      injected.error = ErrorKind::kWorkerLost;
      injected.retryable = true;
      injected.message = "injected replica failure (chaos)";
      r.record_outcome(HealthBreaker::Outcome::kFailure, is_probe, injected);
      {
        const std::lock_guard<std::mutex> lock{stats_mutex_};
        ++stats_.injected_failures;
      }
      job.tried[candidate.index] = true;
      job.last_variant = r.name();
      fail_over(jobp, injected, now);
      return;
    }

    const std::int64_t delay = fault::replica_dispatch_delay_ms(idx);
    if (delay > 0 && !job.transit_delayed) {
      // Chaos: slow transit to this replica. Applied as a non-blocking
      // not_before gate so one slow replica never stalls the dispatcher.
      job.transit_delayed = true;
      job.not_before = now + std::chrono::milliseconds{delay};
      r.abandon_dispatch(is_probe);
      return;
    }

    TicketPtr ticket = r.submit(job.route.request);
    {
      const std::lock_guard<std::mutex> lock{job.mutex};
      job.active_ticket = ticket;
      if (job.cancel_requested.load(std::memory_order_acquire)) {
        ticket->cancel();
      }
    }
    job.active_replica = idx;
    job.active_probe = is_probe;
    job.tried[candidate.index] = true;
    job.last_variant = r.name();
    // Last: the hook runs at once when the replica resolved the request in
    // submit(), and the completion must find the attempt recorded.
    ticket->on_terminal(
        [queue = queue_, jobp] { queue->push_completed(jobp); });
    return;
  }
  // Nothing eligible right now: park until a cooldown ends or an event.
  // Bounded overall because every real attempt consumes a failover hop and
  // cooldowns always elapse.
  job.not_before = retry_at(now);
}

Clock::time_point VariantRouter::retry_at(Clock::time_point now) const {
  std::int64_t wait_ms = -1;
  for (const auto& r : replicas_) {
    // A breaker that turned dispatchable since the candidates were ordered
    // (a remote replica's trip races the dispatcher): try again at once.
    if (r->breaker().dispatchable()) return now;
    // Already a ceiling: the breaker truncates the elapsed time, never the
    // time remaining.
    const std::int64_t cooling = r->breaker().cooldown_remaining_ms();
    if (cooling > 0 && (wait_ms < 0 || cooling < wait_ms)) wait_ms = cooling;
  }
  // Every breaker half-open with its probe tokens taken: a probe's
  // completion is the event that frees one.
  if (wait_ms < 0) return Clock::time_point::max();
  return now + std::chrono::milliseconds{wait_ms};
}

void VariantRouter::handle_outcome(const JobPtr& jobp, const Response& response,
                                   Clock::time_point now) {
  detail::RouteJob& job = *jobp;
  Replica& r = *replicas_[static_cast<std::size_t>(job.active_replica)];
  const bool is_probe = job.active_probe;
  job.active_replica = -1;
  job.active_probe = false;
  {
    const std::lock_guard<std::mutex> lock{job.mutex};
    job.active_ticket.reset();
  }

  HealthBreaker::Outcome outcome = HealthBreaker::Outcome::kNeutral;
  bool terminal = true;
  switch (response.state) {
    case RequestState::kCompleted:
      outcome = HealthBreaker::Outcome::kSuccess;
      break;
    case RequestState::kFailed:
      if (response.error == ErrorKind::kInterrupted) {
        if (r.remote()) {
          // A remote worker draining means *that replica* is going away
          // (rolling upgrade / SIGTERM), not this process — siblings can
          // still serve the request.
          outcome = HealthBreaker::Outcome::kFailure;
          terminal = false;
        } else {
          // Signal-initiated server drain: not the replica's fault, and the
          // process is going down — terminal, breaker untouched.
          outcome = HealthBreaker::Outcome::kNeutral;
        }
      } else {
        // Hung worker (kTimeout), NaN logits, decode exceptions: the
        // replica is misbehaving — trip the breaker and fail over.
        outcome = HealthBreaker::Outcome::kFailure;
        terminal = false;
      }
      break;
    case RequestState::kShed:
      outcome = HealthBreaker::Outcome::kBackpressure;
      terminal = false;
      break;
    case RequestState::kRejected:
      if (response.error == ErrorKind::kResourceExhausted) {
        // Queue full / KV exhausted: busy, not broken — try elsewhere.
        outcome = HealthBreaker::Outcome::kBackpressure;
        terminal = false;
      } else {
        // Bad request (empty prompt, over-context): every variant would
        // reject it identically — terminal, no failover, breaker untouched.
        outcome = HealthBreaker::Outcome::kNeutral;
      }
      break;
    case RequestState::kTimeout:
    case RequestState::kCancelled:
      // Client-attributed: own deadline or explicit cancel. Terminal.
      outcome = HealthBreaker::Outcome::kNeutral;
      break;
    case RequestState::kQueued:
    case RequestState::kRunning:
      break;
  }
  r.record_outcome(outcome, is_probe, response);
  if (terminal) {
    resolve(job, response, r.name());
  } else {
    fail_over(jobp, response, now);
  }
}

void VariantRouter::fail_over(const JobPtr& jobp, const Response& response,
                              Clock::time_point now) {
  detail::RouteJob& job = *jobp;
  if (job.hops >= config_.failover_max) {
    {
      const std::lock_guard<std::mutex> lock{stats_mutex_};
      ++stats_.exhausted;
    }
    Response final = response;
    final.message += " [failover exhausted after " +
                     std::to_string(job.hops + 1) + " attempts]";
    resolve(job, std::move(final), job.last_variant);
    return;
  }
  ++job.hops;
  {
    const std::lock_guard<std::mutex> lock{stats_mutex_};
    ++stats_.failovers;
  }
  log_info("route: failing over request (hop ", job.hops, "/",
           config_.failover_max, ") after ",
           request_state_name(response.state), " on '", job.last_variant,
           "'");
  // Recurse at most failover_max deep: an injected pre-submit failure in
  // dispatch() calls straight back into fail_over.
  dispatch(jobp, now);
}

}  // namespace sdd::serve
