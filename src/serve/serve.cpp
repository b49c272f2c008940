#include "serve/serve.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/signals.hpp"

namespace sdd::serve {

using Clock = std::chrono::steady_clock;

namespace detail {

// Shared between the client-facing Ticket and the scheduler. Resolved
// exactly once, by finish(): `terminal` + cv wake blocking clients and
// `on_terminal` tells an event-driven one (Ticket::on_terminal).
struct Job {
  Request request;
  CancelToken cancel;
  Clock::time_point submitted_at{};
  Clock::time_point started_at{};
  bool started = false;
  bool degraded = false;

  std::mutex mutex;
  std::condition_variable cv;
  bool terminal = false;
  Response response;
  std::function<void()> on_terminal;
};

// The one resolve path of server and remote jobs. The first call stores the
// response, runs `count` (so stats are current before a waiter wakes), marks
// the job terminal and wakes its waiters; then the hook runs, outside the
// job's lock. Moving the hook out also drops whatever it captured, which
// may own this job (a router attempt holds its ticket, the ticket this job).
// Later calls change nothing.
template <typename Count>
void finish(Job& job, Response response, Count&& count) {
  std::function<void()> hook;
  {
    const std::lock_guard<std::mutex> lock{job.mutex};
    if (job.terminal) return;
    job.response = std::move(response);
    count(job.response.state);
    job.terminal = true;
    hook = std::exchange(job.on_terminal, nullptr);
  }
  job.cv.notify_all();
  if (hook) hook();
}

// ---- RemoteJob (cross-process seam) ----------------------------------------

std::shared_ptr<Job> RemoteJob::make(Request request) {
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->submitted_at = std::chrono::steady_clock::now();
  return job;
}

TicketPtr RemoteJob::ticket(const std::shared_ptr<Job>& job) {
  return TicketPtr{new Ticket{job}};
}

const Request& RemoteJob::request(Job& job) { return job.request; }

bool RemoteJob::cancel_requested(Job& job) { return job.cancel.cancelled(); }

void RemoteJob::resolve(Job& job, Response response) {
  finish(job, std::move(response), [](RequestState) {});
}

}  // namespace detail

namespace {

std::int64_t ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(to - from).count();
}

// Prompt tokens a slot prefills per scheduler round: long enough that a
// span amortizes the per-step fixed costs, short enough that one long prompt
// delays the other slots' tokens by about one span pass.
constexpr std::size_t kPrefillChunk = 32;

// KV bytes one plain decode slot pins: keys and values, every layer, full
// context.
std::int64_t plain_slot_bytes(const nn::TransformerLM& model) {
  const nn::ModelConfig& mc = model.config();
  return model.n_layers() * 2 * mc.max_seq_len * mc.d_model *
         static_cast<std::int64_t>(sizeof(float));
}

}  // namespace

// ---- names -----------------------------------------------------------------

std::string_view request_state_name(RequestState state) {
  switch (state) {
    case RequestState::kQueued:
      return "queued";
    case RequestState::kRunning:
      return "running";
    case RequestState::kCompleted:
      return "completed";
    case RequestState::kTimeout:
      return "timeout";
    case RequestState::kCancelled:
      return "cancelled";
    case RequestState::kShed:
      return "shed";
    case RequestState::kRejected:
      return "rejected";
    case RequestState::kFailed:
      return "failed";
  }
  return "unknown";
}

bool request_state_terminal(RequestState state) {
  return state != RequestState::kQueued && state != RequestState::kRunning;
}

// ---- ticket ----------------------------------------------------------------

const Response& Ticket::wait() {
  std::unique_lock<std::mutex> lock{job_->mutex};
  job_->cv.wait(lock, [this] { return job_->terminal; });
  return job_->response;
}

bool Ticket::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock{job_->mutex};
  return job_->cv.wait_for(lock, timeout, [this] { return job_->terminal; });
}

void Ticket::cancel() { job_->cancel.cancel(); }

void Ticket::on_terminal(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock{job_->mutex};
    if (!job_->terminal) {
      job_->on_terminal = std::move(fn);
      return;
    }
  }
  fn();
}

RequestState Ticket::state() const {
  const std::lock_guard<std::mutex> lock{job_->mutex};
  return job_->response.state;
}

// ---- server ----------------------------------------------------------------

// One in-flight request and its decode session (KV cache, RNG, stop set and
// degradation-clamped budget). The session runs exactly the decode sequence
// nn::generate runs, so a request's output is bit-identical to an unloaded
// single-request decode regardless of what else shares the batch.
struct InferenceServer::ActiveSlot {
  std::shared_ptr<detail::Job> job;
  nn::DecodeSession session;
};

InferenceServer::InferenceServer(const nn::TransformerLM& model,
                                 ServerConfig config,
                                 const nn::TransformerLM* draft)
    : model_{model},
      draft_{draft},
      config_{std::move(config)},
      prefix_cache_{model_, kPrefillChunk, plain_slot_bytes(model_)} {
  kv_slot_bytes_ = plain_slot_bytes(model_);
  if (speculative()) {
    // A speculative slot pins both caches; budget accounting is conservative
    // for the occasional sampled (non-speculative) request sharing the batch.
    kv_slot_bytes_ += plain_slot_bytes(*draft_);
  }
  kv_slot_limit_ = config_.kv_budget_bytes > 0
                       ? std::max<std::int64_t>(
                             1, config_.kv_budget_bytes / kv_slot_bytes_)
                       : std::numeric_limits<std::int64_t>::max();
  config_.queue_capacity = std::max<std::int64_t>(1, config_.queue_capacity);
  config_.max_batch = std::max<std::int64_t>(1, config_.max_batch);
  soft_limit_.store(config_.max_batch, std::memory_order_relaxed);
  if (config_.start_worker) start();
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::start() {
  // A client that disappears mid-stream must surface as a write error on
  // its ticket, not kill the whole server with SIGPIPE.
  signals::ignore_sigpipe();
  const std::lock_guard<std::mutex> lock{queue_mutex_};
  if (worker_started_ || stopping_) return;
  worker_started_ = true;
  worker_ = std::thread{&InferenceServer::worker_main, this};
}

bool InferenceServer::speculative() const {
  return draft_ != nullptr && config_.spec_k > 0;
}

std::int64_t InferenceServer::kv_slot_bytes() const { return kv_slot_bytes_; }

std::int64_t InferenceServer::current_batch_limit() const {
  const std::int64_t soft = soft_limit_.load(std::memory_order_acquire);
  return std::max<std::int64_t>(
      1, std::min({config_.max_batch, kv_slot_limit_, soft}));
}

std::int64_t InferenceServer::queue_depth() const {
  const std::lock_guard<std::mutex> lock{queue_mutex_};
  return static_cast<std::int64_t>(queue_.size());
}

ServerStats InferenceServer::stats() const {
  // Snapshot under the scheduler's queue lock too: submit() counts and
  // dispositions a request inside one queue_mutex_ critical section, so a
  // reader holding both locks can never observe a torn state where
  // `submitted` includes a request whose immediate rejection/shed has not
  // landed yet. scoped_lock orders the pair deadlock-free.
  const std::scoped_lock lock{queue_mutex_, stats_mutex_};
  return stats_;
}

TicketPtr InferenceServer::submit(Request request) {
  auto job = std::make_shared<detail::Job>();
  job->request = std::move(request);
  job->submitted_at = Clock::now();
  const std::int64_t deadline_ms = job->request.deadline_ms > 0
                                       ? job->request.deadline_ms
                                       : config_.default_deadline_ms;
  job->cancel = deadline_ms > 0 ? CancelToken::with_deadline(
                                      std::chrono::milliseconds{deadline_ms})
                                : CancelToken::make();
  TicketPtr ticket{new Ticket{job}};
  const std::int64_t vocab = model_.config().vocab_size;
  const bool bad_token = std::any_of(
      job->request.prompt.begin(), job->request.prompt.end(),
      [vocab](std::int32_t token) { return token < 0 || token >= vocab; });

  // One queue_mutex_ critical section covers the submitted counter AND the
  // admission disposition (queue / shed / reject), so a stats() snapshot —
  // which takes the same lock — can never read `submitted` torn from the
  // matching terminal counter of an immediately-resolved request. The lock
  // nesting here is queue_mutex_ -> job.mutex -> stats_mutex_ (via
  // resolve), the only multi-lock order in this file.
  bool queued = false;
  {
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    {
      const std::lock_guard<std::mutex> stats_lock{stats_mutex_};
      ++stats_.submitted;
    }
    const auto prompt_len =
        static_cast<std::int64_t>(job->request.prompt.size());
    if (prompt_len == 0) {
      resolve(*job, RequestState::kRejected, ErrorKind::kFatal, "empty prompt");
    } else if (prompt_len >= model_.config().max_seq_len) {
      resolve(*job, RequestState::kRejected, ErrorKind::kFatal,
              "prompt exceeds context window");
    } else if (bad_token) {
      // Caught here rather than in the decode pass, where it would fail
      // every slot sharing the round.
      resolve(*job, RequestState::kRejected, ErrorKind::kFatal,
              "prompt token out of range for vocabulary of " +
                  std::to_string(vocab));
    } else if (stopping_) {
      resolve(*job, RequestState::kRejected, ErrorKind::kResourceExhausted,
              "server shutting down");
    } else if (static_cast<std::int64_t>(queue_.size()) >=
               config_.queue_capacity) {
      // Overload: shed the lowest-priority queued request when the newcomer
      // strictly outranks it, otherwise reject the newcomer. Either way the
      // loser gets a typed, retryable resource_exhausted error and the
      // queue never grows past capacity. min_element returns the FIRST
      // minimal element, so among equal lowest-priority requests the oldest
      // one is shed.
      auto victim = std::min_element(
          queue_.begin(), queue_.end(), [](const auto& a, const auto& b) {
            return a->request.priority < b->request.priority;
          });
      if (victim != queue_.end() &&
          (*victim)->request.priority < job->request.priority) {
        std::shared_ptr<detail::Job> shed_victim = *victim;
        queue_.erase(victim);
        queue_.push_back(job);
        queued = true;
        resolve(*shed_victim, RequestState::kShed,
                ErrorKind::kResourceExhausted,
                "shed in favor of a higher-priority request; retry later");
      } else {
        resolve(*job, RequestState::kRejected, ErrorKind::kResourceExhausted,
                "queue full (capacity " +
                    std::to_string(config_.queue_capacity) + "); retry later");
      }
    } else {
      queue_.push_back(job);
      queued = true;
    }
  }
  if (queued) queue_cv_.notify_one();
  return ticket;
}

void InferenceServer::shutdown() {
  {
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    stopping_ = true;
  }
  queue_cv_.notify_all();
  // start() assigns worker_ under queue_mutex_; claim it the same way so a
  // shutdown() racing start() (or another shutdown()) never reads a
  // half-assigned std::thread or double-joins it.
  std::thread worker;
  {
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    worker = std::move(worker_);
  }
  if (worker.joinable()) worker.join();
  // Without a worker (start() never ran, or it died) nothing drains the
  // queue; resolve leftovers so no client blocks forever.
  std::deque<std::shared_ptr<detail::Job>> leftover;
  {
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    leftover.swap(queue_);
  }
  for (const auto& job : leftover) {
    resolve(*job, RequestState::kCancelled, std::nullopt,
            "server stopped before the request ran");
  }
}

void InferenceServer::resolve(detail::Job& job, RequestState state,
                              std::optional<ErrorKind> error,
                              std::string message,
                              std::vector<std::int32_t> tokens) {
  // started, started_at and degraded are the scheduler's, and every resolve
  // runs on the scheduler or before the job reaches it.
  const Clock::time_point now = Clock::now();
  Response response;
  response.state = state;
  response.tokens = std::move(tokens);
  response.error = error;
  response.retryable = error.has_value() && error_kind_retryable(*error);
  response.degraded = job.degraded;
  response.message = std::move(message);
  response.queue_ms =
      ms_between(job.submitted_at, job.started ? job.started_at : now);
  response.decode_ms = job.started ? ms_between(job.started_at, now) : 0;
  // Lock order is job.mutex -> stats_mutex_, never the reverse.
  detail::finish(job, std::move(response), [this](RequestState resolved) {
    const std::lock_guard<std::mutex> stats_lock{stats_mutex_};
    switch (resolved) {
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
  });
}

void InferenceServer::worker_main() {
  try {
    supervisor::run_stage("serve.worker", config_.worker,
                          [this] { schedule_loop(); });
  } catch (const Error& e) {
    log_error("serve: worker stage unrecoverable (", e.what(),
              "); failing in-flight requests");
    drain_all(e.kind(), e.what());
  } catch (const std::exception& e) {
    log_error("serve: worker died on foreign exception (", e.what(),
              "); failing in-flight requests");
    drain_all(ErrorKind::kFatal, e.what());
  }
}

// Last-resort teardown when the worker cannot continue: every in-flight and
// queued request resolves with a typed error so no client blocks forever.
void InferenceServer::drain_all(ErrorKind kind, const std::string& message) {
  for (auto& slot : active_) {
    resolve(*slot.job, RequestState::kFailed, kind, message,
            slot.session.take_generated());
  }
  active_.clear();
  std::deque<std::shared_ptr<detail::Job>> pending;
  {
    // The server is dead from here on: later submits get a typed rejection
    // instead of queueing behind a worker that no longer exists.
    const std::lock_guard<std::mutex> lock{queue_mutex_};
    stopping_ = true;
    pending.swap(queue_);
  }
  for (const auto& job : pending) {
    resolve(*job, RequestState::kFailed, kind, message);
  }
}

void InferenceServer::schedule_loop() {
  while (true) {
    // Graceful shutdown: stop admitting, finish the in-flight batch (those
    // clients get real results), then fail whatever is still queued with
    // the distinct interrupted kind. Checked before heartbeat(), which
    // would otherwise throw out of the loop and fail the batch too.
    if (signals::interrupt_requested()) {
      log_warn("serve: shutdown signal received; draining in-flight batch");
      {
        const std::lock_guard<std::mutex> lock{queue_mutex_};
        stopping_ = true;
      }
      while (step_slots()) {
      }
      drain_all(ErrorKind::kInterrupted, "shutdown requested by signal " +
                                             std::to_string(
                                                 signals::interrupt_signal()));
      return;
    }
    supervisor::heartbeat();
    admit_jobs();
    if (!step_slots()) {
      std::unique_lock<std::mutex> lock{queue_mutex_};
      if (queue_.empty() && active_.empty()) {
        if (stopping_) return;
        // Idle: park briefly, re-heartbeating each wake so an armed hang
        // watchdog never mistakes an empty server for a hung one.
        queue_cv_.wait_for(lock, std::chrono::milliseconds{20});
      }
    }
  }
}

void InferenceServer::admit_jobs() {
  while (static_cast<std::int64_t>(active_.size()) < current_batch_limit()) {
    std::shared_ptr<detail::Job> job;
    std::int64_t depth_behind = 0;
    {
      const std::lock_guard<std::mutex> lock{queue_mutex_};
      if (queue_.empty()) return;
      job = queue_.front();
      queue_.pop_front();
      depth_behind = static_cast<std::int64_t>(queue_.size());
    }
    if (job->cancel.cancelled()) {
      const bool explicit_cancel =
          std::string_view{job->cancel.reason()} == "cancelled";
      resolve(*job,
              explicit_cancel ? RequestState::kCancelled : RequestState::kTimeout,
              explicit_cancel ? std::nullopt
                              : std::optional<ErrorKind>{ErrorKind::kTimeout},
              explicit_cancel ? "cancelled while queued"
                              : "deadline expired while queued");
      continue;
    }

    const Request& request = job->request;
    const std::int64_t watermark = config_.degrade_queue_depth > 0
                                       ? config_.degrade_queue_depth
                                       : (config_.queue_capacity * 3) / 4;
    const bool degrade = watermark > 0 && depth_behind >= watermark &&
                         config_.degrade_max_new_tokens > 0 &&
                         request.max_new_tokens > config_.degrade_max_new_tokens;
    const nn::GenerateOptions options{
        .max_new_tokens =
            degrade ? config_.degrade_max_new_tokens : request.max_new_tokens,
        .temperature = request.temperature,
        .stop_token = request.stop_token,
        .seed = request.seed,
        .cancel = job->cancel};
    std::optional<nn::DecodeSession> session;
    try {
      // Guarded allocation (util/fault alloc_fail; real allocators can throw
      // here too): failure shrinks the admissible batch instead of crashing.
      // A greedy request on a draft-equipped server decodes speculatively,
      // bit-identically to a plain decode, with both KV caches allocated
      // through the same guarded path. A plain slot starts from the longest
      // cached prefix of its prompt.
      const bool greedy_spec = speculative() && request.temperature == 0.0F;
      session.emplace(model_, request.prompt, options,
                      std::vector<std::int32_t>{request.stop_token}, kPrefillChunk,
                      greedy_spec ? draft_ : nullptr, config_.spec_k,
                      config_.nan_guard, greedy_spec ? nullptr : &prefix_cache_);
    } catch (const Error& e) {
      if (e.kind() == ErrorKind::kResourceExhausted) {
        const auto floor_limit =
            std::max<std::int64_t>(1, static_cast<std::int64_t>(active_.size()));
        soft_limit_.store(floor_limit, std::memory_order_release);
        log_warn("serve: decode-slot allocation failed (", e.what(),
                 "); batch limit lowered to ", floor_limit);
        if (!active_.empty()) {
          // Capacity frees as running slots retire; put the request back at
          // the head and try again then.
          const std::lock_guard<std::mutex> lock{queue_mutex_};
          queue_.push_front(job);
          return;
        }
        resolve(*job, RequestState::kRejected, e.kind(), e.what());
        continue;
      }
      resolve(*job, RequestState::kFailed, e.kind(), e.what());
      continue;
    } catch (const std::exception& e) {
      resolve(*job, RequestState::kFailed, ErrorKind::kFatal, e.what());
      continue;
    }

    if (degrade) {
      job->degraded = true;
      const std::lock_guard<std::mutex> lock{stats_mutex_};
      ++stats_.degraded;
    }
    {
      const std::lock_guard<std::mutex> lock{job->mutex};
      job->started = true;
      job->started_at = Clock::now();
      job->response.state = RequestState::kRunning;
    }
    active_.push_back({job, std::move(*session)});
    {
      const std::lock_guard<std::mutex> lock{stats_mutex_};
      stats_.peak_active = std::max(
          stats_.peak_active, static_cast<std::int64_t>(active_.size()));
      stats_.prefill_tokens_reused +=
          static_cast<std::int64_t>(active_.back().session.prefill_reused());
    }
  }
}

void InferenceServer::retire_slot(ActiveSlot& slot, RequestState state,
                                  std::optional<ErrorKind> error,
                                  std::string message) {
  // A null job marks the slot retired; step_slots sweeps it out of active_
  // when the round ends.
  const std::shared_ptr<detail::Job> job = std::move(slot.job);
  if (const nn::SpecCounters* counters = slot.session.spec_counters()) {
    // Fold the session's acceptance telemetry into the server aggregate and
    // the per-task breakdown, whatever the terminal state — partial rounds
    // from a cancelled or failed request still describe draft quality.
    const std::lock_guard<std::mutex> lock{stats_mutex_};
    ++stats_.spec_requests;
    stats_.spec.add(*counters);
    if (!job->request.task.empty()) {
      stats_.spec_by_task[job->request.task].add(*counters);
    }
  }
  if (state == RequestState::kCompleted) {
    // Successful retirements walk the allocation-failure soft limit back up
    // toward the configured batch size.
    const std::int64_t soft = soft_limit_.load(std::memory_order_acquire);
    if (soft < config_.max_batch) {
      soft_limit_.store(soft + 1, std::memory_order_release);
    }
  }
  resolve(*job, state, error, std::move(message), slot.session.take_generated());
}

// One scheduler round in four phases (docs/serving.md):
//   1. per slot, in slot order: DecodeSession::advance() (cancellation,
//      heartbeat, fault hooks, sampling, stop and budget). A plain session
//      returns its prompt chunk or sampled token as its segment of the
//      target pass; a speculative session opens its prefill chunk or
//      draft/verify round. A finished session retires its slot.
//   2. draft sub-passes: pass j is one draft decode_batch over step j of
//      every speculative slot (its prompt chunk, owed token or next
//      proposal), so the draft runs at most k+1 passes per round.
//   3. one target decode_batch over every plain segment and every
//      speculative slot's prompt chunk or verify span, so each weight block
//      streams once per round instead of once per slot; then, per slot in
//      slot order, set_logits() (a speculative slot accepts or rolls back
//      here, and retires when it emitted its last token).
//   4. per stepped slot, in slot order: logit poisoning and the NaN guard.
// A failed pass fails exactly the slots that joined it. The per-slot decode
// sequence is exactly nn::generate's, so a request's output is
// bit-identical to an unloaded single-request decode regardless of what
// else shares the round.
bool InferenceServer::step_slots() {
  if (active_.empty()) return false;
  // Retired slots leave active_ once the round is over, however it ends, so
  // slot indices stay stable across the phases.
  struct Sweep {
    std::vector<ActiveSlot>& slots;
    ~Sweep() {
      std::erase_if(slots, [](const ActiveSlot& slot) { return slot.job == nullptr; });
    }
  } sweep{active_};

  std::vector<std::size_t> stepped;  // slots with fresh logits this round
  // Per slot: its segment of the target pass, once known.
  std::vector<std::optional<nn::TransformerLM::DecodeSegment>> target_segment(
      active_.size());
  std::exception_ptr recycle;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    ActiveSlot& slot = active_[i];
    detail::Job& job = *slot.job;

    try {
      target_segment[i] = slot.session.advance();
      if (slot.session.cancelled()) {
        // Token-boundary cancellation: deadline expiry or a client abandon
        // frees the slot with the partial output.
        const bool explicit_cancel =
            std::string_view{job.cancel.reason()} == "cancelled";
        retire_slot(slot,
                    explicit_cancel ? RequestState::kCancelled
                                    : RequestState::kTimeout,
                    explicit_cancel ? std::nullopt
                                    : std::optional<ErrorKind>{ErrorKind::kTimeout},
                    explicit_cancel ? "cancelled mid-generation"
                                    : "deadline expired mid-generation");
        continue;
      }
      if (slot.session.done()) {
        retire_slot(slot, RequestState::kCompleted, std::nullopt, "");
        continue;
      }
      stepped.push_back(i);
    } catch (const Error& e) {
      if (e.kind() == ErrorKind::kTimeout &&
          supervisor::cancellation_requested()) {
        // The hang watchdog cancelled the worker stage while this slot was
        // stepping: fail the hung request, finish the round for the slots
        // already stepped (none may keep a sampled token or an open round
        // without its passes and logits), then unwind so the supervisor
        // recycles the stage (fresh cancellation context); the surviving
        // slots are member state and continue on the next attempt. Nothing
        // after this phase heartbeats, so the rest of the round runs.
        retire_slot(slot, RequestState::kFailed, ErrorKind::kTimeout,
                    std::string{"decode hung; worker recycled: "} + e.what());
        {
          const std::lock_guard<std::mutex> lock{stats_mutex_};
          ++stats_.worker_recycles;
        }
        recycle = std::current_exception();
        break;
      }
      retire_slot(slot, RequestState::kFailed, e.kind(), e.what());
    } catch (const std::exception& e) {
      retire_slot(slot, RequestState::kFailed, ErrorKind::kFatal, e.what());
    }
  }

  // One pass over `segments`, the shares of the slots in `joined`. A failed
  // pass fails exactly those slots and returns no logits.
  std::vector<std::size_t> joined;
  std::vector<nn::TransformerLM::DecodeSegment> segments;
  const auto run_pass = [&](const nn::TransformerLM& model, bool target_pass) {
    ErrorKind kind = ErrorKind::kFatal;
    std::string message;
    try {
      if (target_pass) fault::on_decode_pass();
      return model.decode_batch(segments);
    } catch (const Error& e) {
      kind = e.kind();
      message = e.what();
    } catch (const std::exception& e) {
      message = e.what();
    }
    for (const std::size_t i : joined) {
      retire_slot(active_[i], RequestState::kFailed, kind, message);
    }
    return std::vector<std::vector<float>>{};
  };

  // Draft sub-pass j: step j of every speculative slot still drafting.
  while (true) {
    joined.clear();
    segments.clear();
    for (const std::size_t i : stepped) {
      ActiveSlot& slot = active_[i];
      if (slot.job == nullptr) continue;
      if (const auto segment = slot.session.draft_segment()) {
        joined.push_back(i);
        segments.push_back(*segment);
      }
    }
    if (segments.empty()) break;
    std::vector<std::vector<float>> logits = run_pass(*draft_, /*target_pass=*/false);
    for (std::size_t j = 0; j < logits.size(); ++j) {
      active_[joined[j]].session.set_draft_logits(std::move(logits[j]));
    }
  }

  joined.clear();
  segments.clear();
  for (const std::size_t i : stepped) {
    ActiveSlot& slot = active_[i];
    if (slot.job == nullptr) continue;
    if (slot.session.drafting()) target_segment[i] = slot.session.verify_segment();
    // A verify segment with no tokens (a target-only step with nothing
    // owed) emits from the logits the slot already holds.
    if (!target_segment[i]->tokens.empty()) {
      joined.push_back(i);
      segments.push_back(*target_segment[i]);
    }
  }
  std::vector<std::vector<float>> logits;
  if (!segments.empty()) logits = run_pass(model_, /*target_pass=*/true);
  std::size_t next = 0;
  for (const std::size_t i : stepped) {
    ActiveSlot& slot = active_[i];
    if (slot.job == nullptr) continue;  // retired, perhaps by its failed pass
    try {
      slot.session.set_logits(target_segment[i]->tokens.empty()
                                  ? std::vector<float>{}
                                  : std::move(logits[next++]));
      if (slot.session.done()) {
        retire_slot(slot, RequestState::kCompleted, std::nullopt, "");
      }
    } catch (const Error& e) {
      retire_slot(slot, RequestState::kFailed, e.kind(), e.what());
    } catch (const std::exception& e) {
      retire_slot(slot, RequestState::kFailed, ErrorKind::kFatal, e.what());
    }
  }

  for (const std::size_t i : stepped) {
    ActiveSlot& slot = active_[i];
    if (slot.job == nullptr) continue;
    std::vector<float>& slot_logits = slot.session.logits();
    if (fault::should_poison_logits() && !slot_logits.empty()) {
      slot_logits[0] = std::numeric_limits<float>::quiet_NaN();
    }
    if (config_.nan_guard &&
        std::ranges::any_of(slot_logits, [](float v) { return !std::isfinite(v); })) {
      retire_slot(slot, RequestState::kFailed, ErrorKind::kNumericDivergence,
                  "non-finite logits during decode");
    }
  }
  if (recycle) std::rethrow_exception(recycle);
  return true;
}

}  // namespace sdd::serve
