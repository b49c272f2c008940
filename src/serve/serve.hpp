// Fault-tolerant batched inference serving for a (pruned) TransformerLM.
//
// InferenceServer wraps a const model behind a bounded request queue and a
// single scheduler thread that continuously batches admitted requests: each
// in-flight request owns a decode slot (its own KV cache, RNG, and token
// budget) and every round steps each slot once — a decode token, a prompt
// chunk of up to 32 tokens, or a speculative draft/verify round — with every
// slot's target rows (speculative verify spans included) run as ONE batched
// forward pass and the speculative slots' draft steps batched into at most
// k+1 draft passes, so each weight block streams once per pass while one
// slow request never blocks the rest for more than a step. Plain slots restore
// prompt chunks that an earlier request already computed from one shared
// prefix cache instead of prefilling them again. Per-request determinism is
// preserved — a request's output depends only on its prompt, seed, and
// options, never on what else is in the batch.
//
// Robustness model (see docs/serving.md for the full degradation ladder):
//  * Admission control: the queue has a hard capacity. When it is full a new
//    request is rejected with a typed, retryable resource_exhausted error —
//    unless a strictly lower-priority queued request can be shed in its
//    favor (the shed request resolves with the same typed error).
//  * KV budget: kv_budget_bytes (SDD_SERVE_KV_BUDGET_MB) caps the memory of
//    concurrent decode slots; the admissible batch size shrinks to fit
//    instead of OOMing, and an injected/real allocation failure
//    (Error{resource_exhausted}) during slot creation shrinks it further at
//    runtime.
//  * Deadlines and cancellation: every request carries a CancelToken;
//    expiry or a client cancel() frees the slot at the next token boundary.
//  * Overload degradation: past a queue-depth watermark, new admissions get
//    their max_new_tokens clamped (response marked `degraded`) so the queue
//    drains faster; outputs stay a prefix of the unloaded-server output.
//  * Worker supervision: the scheduler runs under util/supervisor with the
//    PR-3 heartbeat hang watchdog. A hung decode step is cancelled by the
//    watchdog, the hung request fails with a typed timeout, and the worker
//    stage is recycled with the surviving slots intact.
//  * NaN guard: non-finite logits fail that request with a typed
//    numeric_divergence error instead of emitting garbage tokens.
//
// Every submitted request terminates with a response or a typed error; the
// server itself never throws out of the scheduler and never grows unbounded.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "nn/decode.hpp"
#include "nn/prefix_cache.hpp"
#include "nn/speculative.hpp"
#include "nn/transformer.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/supervisor.hpp"

namespace sdd::serve {

// spec_k: draft tokens per speculative round; 0 = off. Takes effect only
// when the server was built with a draft model, and only for greedy
// (temperature 0) requests — outputs stay bit-identical to the
// non-speculative decode.
//
// worker supervises the scheduler stage: effectively unbounded retries with
// a short, capped backoff (a serving worker must recycle, not die), plus the
// heartbeat hang watchdog (SDD_SERVE_HANG_MS, else SDD_STAGE_HANG_SEC).
#define SDD_SERVER_FIELDS(X)                                                  \
  X(std::int64_t, queue_capacity, 64, kRun, "hard cap on queued requests")  \
  X(std::int64_t, max_batch, 8, kRun, "max concurrent decode slots")        \
  X(std::int64_t, kv_budget_bytes, 0, kRun, "summed KV-slot bytes cap; 0 = off") \
  X(std::int64_t, default_deadline_ms, 0, kRun, "deadline of requests with none") \
  X(std::int64_t, degrade_queue_depth, 0, kRun, "watermark; 0 = 3/4 of capacity") \
  X(std::int64_t, degrade_max_new_tokens, 16, kRun, "clamp past the watermark") \
  X(bool, nan_guard, true, kRun, "fail requests on non-finite logits")      \
  X(bool, start_worker, true, kRun, "test seam: false = call start() later") \
  X(std::int64_t, spec_k, 0, kRun, "draft tokens per speculative round")    \
  X(supervisor::SupervisorConfig, worker,                                   \
    (supervisor::SupervisorConfig{                                          \
        .retry_max = 1'000'000'000, .backoff_ms = 1, .backoff_cap_ms = 50}), \
    kRun, "scheduler stage supervision")

struct ServerConfig {
  SDD_CONFIG_FIELDS(SDD_SERVER_FIELDS)
};

// Terminal states carry a response; kQueued/kRunning are transient.
enum class RequestState {
  kQueued,
  kRunning,
  kCompleted,  // full generation (possibly degraded-clamped)
  kTimeout,    // deadline expired; response holds the partial tokens
  kCancelled,  // client cancel() or server shutdown before completion
  kShed,       // evicted from the queue in favor of a higher-priority request
  kRejected,   // refused at admission (queue full / allocation failure)
  kFailed,     // decode error: hung worker, NaN logits, ...
};

std::string_view request_state_name(RequestState state);
bool request_state_terminal(RequestState state);

struct Request {
  std::vector<std::int32_t> prompt;
  std::int64_t max_new_tokens = 48;
  float temperature = 0.0F;  // 0 => greedy argmax
  std::int32_t stop_token = -1;
  std::uint64_t seed = 1234;
  std::int32_t priority = 0;     // higher survives overload longer
  std::int64_t deadline_ms = 0;  // 0 = server default (which may be none)
  std::string task;              // telemetry label: speculative acceptance is
                                 // aggregated per task ("" = untracked)
};

struct Response {
  RequestState state = RequestState::kQueued;
  std::vector<std::int32_t> tokens;        // complete, or partial on timeout
  std::optional<ErrorKind> error;          // set for non-completed states
                                           // (client cancellation carries none)
  bool retryable = false;                  // error_kind_retryable(*error)
  bool degraded = false;                   // token budget clamped by overload
  std::string message;
  std::int64_t queue_ms = 0;
  std::int64_t decode_ms = 0;
};

namespace detail {
struct Job;
class RemoteJob;
}

// Client-side handle to a submitted request. Resolved exactly once.
class Ticket {
 public:
  // Blocks until the request reaches a terminal state.
  const Response& wait();
  // Returns false if the request is still pending after `timeout`.
  bool wait_for(std::chrono::milliseconds timeout);
  // Cooperative client abandon: the slot is freed at the next token
  // boundary and the ticket resolves with kCancelled.
  void cancel();
  RequestState state() const;
  // Completion hook: `fn` runs exactly once, after the ticket resolves, on
  // the thread that resolved it and after the job's own lock is released;
  // at once on the caller's thread when the ticket is already terminal. One
  // hook per ticket (a later call replaces a hook that has not fired). The
  // resolver may hold InferenceServer's queue lock (a shed victim resolves
  // inside another request's submit) or sit on a replica's pump thread, so
  // `fn` may take only a leaf lock — one under which it calls nothing that
  // locks — and must not block or call back into the server.
  void on_terminal(std::function<void()> fn);

 private:
  friend class InferenceServer;
  friend class detail::RemoteJob;
  explicit Ticket(std::shared_ptr<detail::Job> job) : job_{std::move(job)} {}
  std::shared_ptr<detail::Job> job_;
};

using TicketPtr = std::shared_ptr<Ticket>;

namespace detail {

// Seam for cross-process replicas (serve/remote_replica): mint and resolve
// serving jobs without an InferenceServer behind them. The parent-side
// supervisor hands out ordinary Tickets whose requests are actually decoded
// in a worker process; the wire Response is copied in whole (queue_ms /
// decode_ms are the child's own measurements). A remote job carries a plain
// CancelToken with no parent-side deadline — the worker enforces
// Request::deadline_ms itself, so a parent timer could only mislabel a
// timeout as a cancellation.
class RemoteJob {
 public:
  static std::shared_ptr<Job> make(Request request);  // stamps submitted_at
  static TicketPtr ticket(const std::shared_ptr<Job>& job);
  static const Request& request(Job& job);
  static bool cancel_requested(Job& job);
  // Resolves the ticket exactly once (first caller wins; later calls are
  // ignored so a late wire response cannot overwrite a failover verdict),
  // through the same path as InferenceServer, completion hook included.
  static void resolve(Job& job, Response response);
};

}  // namespace detail

struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t timed_out = 0;
  std::int64_t cancelled = 0;
  std::int64_t shed = 0;
  std::int64_t rejected = 0;
  std::int64_t failed = 0;
  std::int64_t degraded = 0;         // admissions with a clamped budget
  std::int64_t worker_recycles = 0;  // supervisor stage restarts
  std::int64_t peak_active = 0;      // max concurrent decode slots observed
  std::int64_t prefill_tokens_reused = 0;  // prompt tokens restored from the
                                           // prefix cache, not computed

  // Speculative-decode telemetry (zero when the server has no draft or
  // spec_k is 0): aggregate acceptance counters plus a per-task breakdown
  // keyed by Request::task, both folded in when a speculative slot retires.
  std::int64_t spec_requests = 0;    // requests decoded speculatively
  nn::SpecCounters spec;
  std::map<std::string, nn::SpecCounters> spec_by_task;

  std::int64_t resolved() const {
    return completed + timed_out + cancelled + shed + rejected + failed;
  }
};

class InferenceServer {
 public:
  // The model must outlive the server and is shared const across requests.
  // `draft`, when non-null, enables self-speculative decoding for greedy
  // requests (config.spec_k > 0): the draft proposes, the model verifies,
  // and outputs stay bit-identical to the non-speculative decode. The draft
  // must outlive the server too, share the model's vocabulary, and have a
  // context window at least as large.
  InferenceServer(const nn::TransformerLM& model, ServerConfig config,
                  const nn::TransformerLM* draft = nullptr);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Never throws for overload: a rejected/shed request resolves its ticket
  // immediately with a typed resource_exhausted error instead.
  TicketPtr submit(Request request);

  // Spawns the scheduler thread when the config deferred it (test seam).
  void start();
  // Stops accepting new requests, drains everything in flight (every
  // accepted request still resolves), and joins the scheduler. Idempotent;
  // also run by the destructor.
  void shutdown();

  // Coherent snapshot: taken under the same queue lock submit() uses to
  // count and disposition a request, so counters are never torn (e.g.
  // `submitted` including a rejection whose `rejected` tick hasn't landed).
  ServerStats stats() const;

  // True when greedy requests will decode speculatively (draft + spec_k).
  bool speculative() const;

  // Bytes of KV cache one decode slot pins (all layers, full context;
  // includes the draft's cache when speculative decoding is enabled).
  std::int64_t kv_slot_bytes() const;
  // Current admissible batch size: min(max_batch, KV-budget slots, and the
  // runtime soft limit lowered by allocation failures).
  std::int64_t current_batch_limit() const;

 private:
  struct ActiveSlot;

  void worker_main();
  void schedule_loop();
  void admit_jobs();
  bool step_slots();  // returns false when there was nothing to do
  void resolve(detail::Job& job, RequestState state,
               std::optional<ErrorKind> error, std::string message,
               std::vector<std::int32_t> tokens = {});
  void retire_slot(ActiveSlot& slot, RequestState state,
                   std::optional<ErrorKind> error, std::string message);
  void drain_all(ErrorKind kind, const std::string& message);
  std::int64_t queue_depth() const;

  const nn::TransformerLM& model_;
  const nn::TransformerLM* draft_ = nullptr;  // non-null = speculative capable
  ServerConfig config_;
  std::int64_t kv_slot_bytes_ = 0;
  std::int64_t kv_slot_limit_ = 0;  // from kv_budget_bytes; INT64_MAX = off

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<detail::Job>> queue_;
  bool stopping_ = false;

  // Owned by the scheduler thread; member (not stack) state so decode slots
  // survive a supervisor stage recycle after a hung step.
  std::vector<ActiveSlot> active_;
  // Prompt chunks shared across plain slots, capped at one plain slot's KV
  // bytes (docs/serving.md). Scheduler thread only, so it takes no lock.
  nn::PrefixCache prefix_cache_;
  std::atomic<std::int64_t> soft_limit_{0};  // lowered on allocation failure

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::thread worker_;  // assigned/claimed under queue_mutex_
  bool worker_started_ = false;
};

}  // namespace sdd::serve
