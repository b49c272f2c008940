#include "serve/remote_replica.hpp"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <utility>

#include "nn/transformer.hpp"
#include "util/fault.hpp"
#include "util/ipc.hpp"
#include "util/log.hpp"
#include "util/proc.hpp"
#include "util/signals.hpp"
#include "util/supervisor.hpp"

namespace sdd::serve {
namespace {

constexpr auto frame_type(ReplicaFrame type) {
  return static_cast<std::uint8_t>(type);
}

Response worker_lost_response(const std::string& reason) {
  Response response;
  response.state = RequestState::kFailed;
  response.error = ErrorKind::kWorkerLost;
  response.retryable = true;
  response.message = "replica worker lost: " + reason;
  return response;
}

}  // namespace

// ---- wire codecs -----------------------------------------------------------

namespace {

// Bytes past the schema mean the two endpoints disagree on it, as an overrun does.
void expect_exhausted(const ipc::PayloadReader& r) {
  if (!r.exhausted()) throw Error(ErrorKind::kWorkerLost, "ipc: trailing payload bytes");
}

}  // namespace

namespace detail {

std::string encode_request(std::uint64_t id, const Request& request) {
  ipc::PayloadWriter w;
  w.u64(id);
  w.vec_i32(request.prompt);
  w.i64(request.max_new_tokens);
  w.f32(request.temperature);
  w.i32(request.stop_token);
  w.u64(request.seed);
  w.i32(request.priority);
  w.i64(request.deadline_ms);
  w.str(request.task);
  return w.bytes();
}

std::uint64_t decode_request(const std::string& payload, Request* out) {
  ipc::PayloadReader r{payload};
  const std::uint64_t id = r.u64();
  out->prompt = r.vec_i32();
  out->max_new_tokens = r.i64();
  out->temperature = r.f32();
  out->stop_token = r.i32();
  out->seed = r.u64();
  out->priority = r.i32();
  out->deadline_ms = r.i64();
  out->task = r.str();
  expect_exhausted(r);
  return id;
}

std::string encode_response(std::uint64_t id, const Response& response) {
  ipc::PayloadWriter w;
  w.u64(id);
  w.u8(static_cast<std::uint8_t>(response.state));
  w.vec_i32(response.tokens);
  w.u8(response.error.has_value() ? 1 : 0);
  w.u8(response.error.has_value()
           ? static_cast<std::uint8_t>(*response.error)
           : 0);
  w.u8(response.retryable ? 1 : 0);
  w.u8(response.degraded ? 1 : 0);
  w.str(response.message);
  w.i64(response.queue_ms);
  w.i64(response.decode_ms);
  return w.bytes();
}

std::uint64_t decode_response(const std::string& payload, Response* out) {
  ipc::PayloadReader r{payload};
  const std::uint64_t id = r.u64();
  // A resolved ticket must carry a terminal state (its waiters and hook act
  // on it); anything else, or a byte past either enum, is a broken worker.
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(RequestState::kFailed) ||
      !request_state_terminal(static_cast<RequestState>(state))) {
    throw Error(ErrorKind::kWorkerLost,
                "replica response carries a non-terminal or unknown state " +
                    std::to_string(state));
  }
  out->state = static_cast<RequestState>(state);
  out->tokens = r.vec_i32();
  const bool has_error = r.u8() != 0;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(ErrorKind::kFatal)) {
    throw Error(ErrorKind::kWorkerLost,
                "replica response carries unknown error kind " + std::to_string(kind));
  }
  out->error = has_error ? std::optional<ErrorKind>{static_cast<ErrorKind>(kind)}
                         : std::nullopt;
  out->retryable = r.u8() != 0;
  out->degraded = r.u8() != 0;
  out->message = r.str();
  out->queue_ms = r.i64();
  out->decode_ms = r.i64();
  expect_exhausted(r);
  return id;
}

}  // namespace detail

// ---- parent: RemoteReplica -------------------------------------------------

RemoteReplica::RemoteReplica(
    std::string name, std::string model_path, RemoteReplicaConfig config,
    const ServerConfig& server,
    std::function<void(const std::string&)> on_process_failure)
    : name_{std::move(name)},
      config_{std::move(config)},
      server_text_{config::to_text(server)},
      on_process_failure_{std::move(on_process_failure)},
      model_path_{std::move(model_path)} {
  signals::ignore_sigpipe();
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    spawn_locked();
  }
  pump_ = std::thread{&RemoteReplica::pump_main, this};
}

RemoteReplica::~RemoteReplica() { shutdown(); }

void RemoteReplica::spawn_locked() {
  const ipc::SocketPair pair = ipc::socket_pair();
  proc::Child child;
  try {
    // Queued before the worker exists, so it is the first frame it reads.
    ipc::write_frame(pair.parent_fd, frame_type(ReplicaFrame::kConfig), server_text_);
    if (config_.spawn_fn) {
      child = proc::Child::adopt(config_.spawn_fn(pair.child_fd, model_path_, name_));
    } else {
      std::vector<std::string> env = config_.env_overrides;
      // Chaos targets the first worker generation only: a respawn must come
      // up clean or the kill/respawn loop under test could never converge.
      env.push_back(generation_ == 0 ? "SDD_FAULT=" + config_.child_fault_spec
                                     : "SDD_FAULT=");
      child = proc::Child::spawn(
          {proc::kSelfExe, "replica-worker", "--model", model_path_,
           "--name", name_, "--fd", std::to_string(pair.child_fd),
           "--heartbeat", std::to_string(config_.heartbeat_ms)},
          env, {pair.child_fd});
    }
  } catch (...) {
    ::close(pair.parent_fd);
    ::close(pair.child_fd);
    throw;
  }
  ::close(pair.child_fd);
  fd_ = pair.parent_fd;
  child_ = std::move(child);
  hello_received_ = false;
  draining_ = false;
  // The lease countdown starts at spawn; the worker heartbeats while the
  // model loads, so a slow load is not a false lease expiry.
  last_beat_ = proc::monotonic_ms();
  if (generation_ > 0) ++stats_.respawns;
  ++generation_;
  log_info("route: replica '", name_, "' worker pid ", child_.pid(),
           " spawned (gen ", generation_, ", model ", model_path_, ")");
}

TicketPtr RemoteReplica::submit(Request request) {
  auto job = detail::RemoteJob::make(std::move(request));
  TicketPtr ticket = detail::RemoteJob::ticket(job);
  std::uint64_t id = 0;
  int fd = -1;
  std::string unavailable;
  // Held across the write: handle_death closes the fd under write_mutex_, so
  // the number read from fd_ cannot name a recycled descriptor.
  const std::lock_guard<std::mutex> wlock{write_mutex_};
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    ++stats_.submitted;
    if (stopping_) {
      unavailable = "replica shutting down";
    } else if (draining_) {
      unavailable = "replica draining for upgrade";
    } else if (fd_ < 0) {
      unavailable = "no live worker";
    } else {
      id = next_id_++;
      pending_[id] = Pending{job, false};
      fd = fd_;
    }
    if (!unavailable.empty()) ++stats_.worker_lost;
  }
  if (!unavailable.empty()) {
    // Fail fast: the router records a breaker failure and serves the request
    // from a sibling variant instead of queueing on a dead process.
    detail::RemoteJob::resolve(*job, worker_lost_response(unavailable));
    return ticket;
  }
  try {
    ipc::write_frame(fd, frame_type(ReplicaFrame::kRequest),
                     detail::encode_request(id, detail::RemoteJob::request(*job)));
  } catch (const Error& e) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      stats_.worker_lost += static_cast<std::int64_t>(pending_.erase(id));
      // Make the death prompt and unambiguous; the pump observes the exit
      // and runs the full recovery path (it owns the fd lifecycle). Once
      // fd_ changed, the pump has taken this worker and kills it itself.
      if (fd_ == fd) child_.signal(SIGKILL);
    }
    cv_.notify_all();
    detail::RemoteJob::resolve(*job, worker_lost_response(e.what()));
  }
  return ticket;
}

void RemoteReplica::pump_main() {
  while (true) {
    pollfd polled[2] = {};  // socket, pidfd
    {
      std::unique_lock<std::mutex> lock{mutex_};
      if (pump_exit_ || (stopping_ && fd_ < 0)) return;
      if (fd_ < 0) {
        // Dead worker: respawn once the backoff expires, unless the budget
        // of consecutive unexpected deaths is exhausted (the breaker then
        // keeps the replica quarantined and probes fail fast).
        const std::int64_t wait_ms = next_spawn_at_ - proc::monotonic_ms();
        const auto stop = [this] { return stopping_; };
        if (consecutive_deaths_ > config_.respawn_max) {
          cv_.wait(lock, stop);
        } else if (wait_ms > 0) {
          cv_.wait_for(lock, std::chrono::milliseconds{wait_ms}, stop);
        } else {
          try {
            spawn_locked();
          } catch (const std::exception& e) {
            log_error("route: replica '", name_, "' respawn failed: ",
                      e.what());
            ++consecutive_deaths_;
            next_spawn_at_ = proc::monotonic_ms() + config_.backoff_cap_ms;
          }
        }
        continue;
      }
      polled[0] = {fd_, POLLIN, 0};
      polled[1] = {child_.fd(), POLLIN, 0};
    }
    // The 10 ms tick also carries cancels and the lease check (sweep).
    ::poll(polled, 2, 10);
    try {
      ipc::Frame frame;
      if (polled[0].revents != 0) {
        // Frames first: a worker that exits after answering is read out
        // before its death fails what is left.
        const ipc::ReadStatus status = ipc::read_frame(polled[0].fd, &frame, 10);
        if (status == ipc::ReadStatus::kClosed) {
          handle_death("worker closed the channel");
          continue;
        }
        if (status == ipc::ReadStatus::kFrame) handle_frame(frame.type, frame.payload);
      } else if (polled[1].revents != 0) {
        handle_death("worker exited");
        continue;
      }
    } catch (const Error& e) {
      handle_death(e.what());
      continue;
    }
    sweep();
  }
}

void RemoteReplica::handle_frame(std::uint8_t type,
                                 const std::string& payload) {
  const std::int64_t now = proc::monotonic_ms();
  if (type == frame_type(ReplicaFrame::kHeartbeat)) {
    const std::lock_guard<std::mutex> lock{mutex_};
    last_beat_ = now;
    return;
  }
  if (type == frame_type(ReplicaFrame::kHello)) {
    ipc::PayloadReader r{payload};
    const std::int64_t params = r.i64();
    const std::int64_t layers = r.i64();
    const std::lock_guard<std::mutex> lock{mutex_};
    last_beat_ = now;
    hello_received_ = true;
    cost_ = params;
    consecutive_deaths_ = 0;  // a generation that loads is a healthy restart
    cv_.notify_all();
    log_info("route: replica '", name_, "' worker ready (", params,
             " params, ", layers, " layers)");
    return;
  }
  if (type == frame_type(ReplicaFrame::kResponse)) {
    Response response;
    const std::uint64_t id = detail::decode_response(payload, &response);
    std::shared_ptr<detail::Job> job;
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      last_beat_ = now;
      const auto it = pending_.find(id);
      if (it != pending_.end()) {
        job = it->second.job;
        pending_.erase(it);
        ++stats_.completed;
      }
    }
    // Unknown id = ticket already failed over on a presumed-lost worker that
    // answered late after all; first resolution won, drop the duplicate.
    if (job) detail::RemoteJob::resolve(*job, std::move(response));
    cv_.notify_all();
    return;
  }
  log_warn("route: replica '", name_, "' sent unknown frame type ",
           static_cast<int>(type));
}

void RemoteReplica::sweep() {
  const std::int64_t now = proc::monotonic_ms();
  std::string death;
  std::vector<std::pair<std::uint64_t, int>> cancels;  // (id, fd)
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (fd_ < 0) return;
    if (now - last_beat_ > config_.lease_ms) {
      ++stats_.lease_expiries;
      death = "heartbeat lease expired (" +
              std::to_string(now - last_beat_) + " ms silent)";
    } else if (draining_ &&
               now - drain_started_ > config_.drain_grace_ms) {
      // Overstayed drain: escalate; the pidfd reports the exit.
      log_warn("route: replica '", name_, "' overstayed its drain grace; "
               "escalating to SIGKILL");
      child_.signal(SIGKILL);
    }
    if (death.empty()) {
      for (auto& [id, pending] : pending_) {
        if (!pending.cancel_sent &&
            detail::RemoteJob::cancel_requested(*pending.job)) {
          pending.cancel_sent = true;
          cancels.emplace_back(id, fd_);
        }
      }
    }
  }
  if (!death.empty()) {
    handle_death(death);
    return;
  }
  for (const auto& [id, fd] : cancels) {
    ipc::PayloadWriter w;
    w.u64(id);
    try {
      const std::lock_guard<std::mutex> wlock{write_mutex_};
      ipc::write_frame(fd, frame_type(ReplicaFrame::kCancel), w.bytes());
    } catch (const Error&) {
      // The read side will observe the same dead channel momentarily.
    }
  }
}

void RemoteReplica::handle_death(const std::string& reason) {
  std::vector<std::shared_ptr<detail::Job>> orphans;
  int fd = -1;
  proc::Child child;
  bool intentional = false;
  bool quiet = false;  // a shutdown that interrupts nothing is no loss
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (fd_ < 0) return;  // already handled
    fd = fd_;
    fd_ = -1;  // submits fail fast from this point on
    child = std::move(child_);
    intentional = draining_ || stopping_;
    quiet = stopping_ && pending_.empty();
    draining_ = false;
    hello_received_ = false;
    orphans.reserve(pending_.size());
    for (auto& [id, pending] : pending_) orphans.push_back(pending.job);
    pending_.clear();
    stats_.worker_lost += static_cast<std::int64_t>(orphans.size());
    const std::int64_t now = proc::monotonic_ms();
    if (intentional) {
      next_spawn_at_ = now;  // drain/upgrade: respawn immediately
    } else {
      ++consecutive_deaths_;
      next_spawn_at_ = now + supervisor::backoff_delay_ms(
                                 {.backoff_ms = config_.backoff_ms,
                                  .backoff_cap_ms = config_.backoff_cap_ms},
                                 name_, consecutive_deaths_ - 1);
    }
  }
  cv_.notify_all();
  // Ensure the death is total before recycling the channel (a half-dead
  // worker must not keep a stale fd open): kill what is left of its group
  // and reap it. A drained or shut-down worker gets a moment to exit first.
  const proc::ExitStatus status = child.terminate(intentional ? 200 : 0);
  {
    // No writer is mid-frame once the worker is reaped: a blocked write has
    // returned EPIPE and released the lock. Closing under it prevents a
    // racing submit from writing into a recycled descriptor number.
    const std::lock_guard<std::mutex> wlock{write_mutex_};
    ::close(fd);
  }
  const Response lost = worker_lost_response(reason);
  for (const auto& job : orphans) detail::RemoteJob::resolve(*job, lost);
  if (!quiet) {
    log_warn("route: replica '", name_, "' worker lost (", reason, "; exit ",
             status.exit_code, ", signal ", status.term_signal, "); ",
             orphans.size(), " in-flight request(s) failed over",
             intentional ? "" : "; respawning");
  }
  if (!intentional && on_process_failure_) on_process_failure_(reason);
}

bool RemoteReplica::swap_model(const std::string& new_path,
                               std::int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock{mutex_};
  if (stopping_) return false;
  model_path_ = new_path;
  ++stats_.swaps;
  const std::int64_t target_generation = generation_ + 1;
  if (fd_ >= 0) {
    // SIGTERM starts the worker's graceful drain: finish the in-flight
    // batch, answer what it can, exit 72. The pump reaps it and respawns
    // with the new weights (next_spawn_at_ = now for an intentional death).
    draining_ = true;
    drain_started_ = proc::monotonic_ms();
    child_.signal(SIGTERM);
  }
  return cv_.wait_for(lock, std::chrono::milliseconds{timeout_ms}, [&] {
    return generation_ >= target_generation && hello_received_;
  });
}

void RemoteReplica::shutdown() {
  std::thread pump;
  {
    std::unique_lock<std::mutex> lock{mutex_};
    if (!stopping_) {
      // Graceful first: let a live worker drain its in-flight batch so those
      // clients get real results, mirroring InferenceServer::shutdown. A
      // second caller finds the first one's teardown under way.
      stopping_ = true;
      child_.signal(SIGTERM);
      cv_.notify_all();
    }
    cv_.wait_for(lock, std::chrono::milliseconds{config_.drain_grace_ms},
                 [this] { return fd_ < 0 || pending_.empty(); });
    pump_exit_ = true;
    pump = std::move(pump_);
  }
  if (pump.joinable()) pump.join();
  // The pump is gone; fail what it left behind and reap the worker.
  handle_death("replica shutting down");
}

std::int64_t RemoteReplica::pid() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return fd_ >= 0 ? child_.pid() : -1;
}

std::int64_t RemoteReplica::restarts() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return stats_.respawns;
}

std::int64_t RemoteReplica::heartbeat_age_ms() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (fd_ < 0) return -1;
  return std::max<std::int64_t>(0, proc::monotonic_ms() - last_beat_);
}

std::int64_t RemoteReplica::cost() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return cost_;
}

bool RemoteReplica::ready() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return fd_ >= 0 && hello_received_;
}

RemoteStats RemoteReplica::stats() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

// ---- worker: replica_worker_main -------------------------------------------

int replica_worker_main(const std::string& model_path, const std::string& name,
                        int fd, std::int64_t heartbeat_ms) {
  signals::ignore_sigpipe();
  heartbeat_ms = std::max<std::int64_t>(1, heartbeat_ms);

  // Heartbeats start before the (potentially slow) model load so the parent's
  // lease never falsely expires during startup. The thread stops beating —
  // but keeps running — once a wedge fault fires: the parent must detect the
  // wedge through lease silence, not a closed channel.
  std::mutex write_mutex;
  std::atomic<bool> stop_beats{false};
  std::thread beats{[fd, heartbeat_ms, &write_mutex, &stop_beats] {
    while (!stop_beats.load(std::memory_order_acquire)) {
      if (!fault::replica_wedged()) {
        try {
          const std::lock_guard<std::mutex> wlock{write_mutex};
          ipc::write_frame(fd, frame_type(ReplicaFrame::kHeartbeat), "");
        } catch (const Error&) {
          return;  // parent gone; the main loop will see EOF too
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{heartbeat_ms});
    }
  }};

  int rc = 0;
  int wake = -1;  // eventfd the completion hooks write
  try {
    ipc::Frame config_frame;
    if (ipc::read_frame(fd, &config_frame, 10'000) != ipc::ReadStatus::kFrame ||
        config_frame.type != frame_type(ReplicaFrame::kConfig)) {
      throw Error(ErrorKind::kWorkerLost, "no server config from the parent");
    }
    ServerConfig server_config;
    config::apply_text(server_config, config_frame.payload);
    const nn::TransformerLM model = nn::TransformerLM::load(model_path);
    // Every ticket's completion hook queues its id in `done` and bumps
    // `wake`, so the loop sleeps in poll() until a frame, a completion or
    // SIGTERM arrives, with no timeout. Declared before the server: its
    // shutdown resolves what is left, and those hooks still run.
    std::mutex done_mutex;  // leaf lock: the hooks take it and nothing else
    std::vector<std::uint64_t> done;
    wake = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake < 0) throw Error(ErrorKind::kFatal, "replica-worker: eventfd failed");
    InferenceServer server{model, server_config};
    {
      ipc::PayloadWriter hello;
      hello.i64(model.param_count());
      hello.i64(model.n_layers());
      const std::lock_guard<std::mutex> wlock{write_mutex};
      ipc::write_frame(fd, frame_type(ReplicaFrame::kHello), hello.bytes());
    }
    log_info("replica-worker '", name, "': serving ", model_path);

    std::map<std::uint64_t, TicketPtr> pending;
    std::vector<std::uint64_t> answered;
    bool draining = false;
    while (true) {
      {
        const std::lock_guard<std::mutex> lock{done_mutex};
        answered.swap(done);
      }
      for (const std::uint64_t id : answered) {
        const auto it = pending.find(id);
        if (it == pending.end()) continue;  // a duplicate id's first ticket
        const std::string payload = detail::encode_response(id, it->second->wait());
        const std::lock_guard<std::mutex> wlock{write_mutex};
        if (fault::should_tear_frame()) {
          // Chaos: die mid-frame. The parent must classify the torn frame
          // as retryable worker_lost and fail the request over.
          ipc::write_torn_frame(fd, frame_type(ReplicaFrame::kResponse),
                                payload);
          log_error("fault: replica worker tearing a response frame — "
                    "_Exit(137)");
          std::_Exit(137);
        }
        ipc::write_frame(fd, frame_type(ReplicaFrame::kResponse), payload);
        pending.erase(it);
      }
      answered.clear();

      if (!draining && signals::interrupt_requested()) {
        // Graceful drain: stop reading requests, let the server finish its
        // in-flight batch (those clients get real results; still-queued
        // requests fail with kInterrupted and the parent fails them over),
        // answer each request as it resolves, exit 72.
        log_info("replica-worker '", name,
                 "': draining after SIGTERM/SIGINT");
        draining = true;
      }
      if (draining && pending.empty()) {
        server.shutdown();
        rc = error_kind_exit_code(ErrorKind::kInterrupted);  // 72
        break;
      }

      pollfd polled[3] = {{wake, POLLIN, 0},
                          {draining ? -1 : fd, POLLIN, 0},
                          {draining ? -1 : signals::interrupt_fd(), POLLIN, 0}};
      if (::poll(polled, 3, -1) < 0 && errno != EINTR) {
        throw Error(ErrorKind::kFatal, "replica-worker: poll failed");
      }
      if (polled[0].revents != 0) {
        std::uint64_t count = 0;  // resets the eventfd; `done` has the ids
        [[maybe_unused]] const ssize_t got = ::read(wake, &count, sizeof count);
      }
      if (polled[2].revents != 0 && !signals::interrupt_requested()) {
        // A byte without our interrupt: a forked-from parent's signal on the
        // shared pipe. Take it, or poll() would spin on it.
        char sink[64];
        while (::read(polled[2].fd, sink, sizeof sink) > 0) {
        }
      }
      if (polled[1].revents == 0) continue;
      ipc::Frame frame;
      const ipc::ReadStatus status = ipc::read_frame(fd, &frame, 0);
      if (status == ipc::ReadStatus::kClosed) {
        server.shutdown();
        break;
      }
      if (status != ipc::ReadStatus::kFrame) continue;
      if (frame.type == frame_type(ReplicaFrame::kRequest)) {
        fault::on_replica_request();  // replica_kill9 / replica_wedge
        Request request;
        const std::uint64_t id = detail::decode_request(frame.payload, &request);
        TicketPtr& ticket = pending[id];
        ticket = server.submit(std::move(request));
        ticket->on_terminal([&done_mutex, &done, wake, id] {
          {
            const std::lock_guard<std::mutex> lock{done_mutex};
            done.push_back(id);
          }
          const std::uint64_t one = 1;
          [[maybe_unused]] const ssize_t written = ::write(wake, &one, sizeof one);
        });
      } else if (frame.type == frame_type(ReplicaFrame::kCancel)) {
        ipc::PayloadReader r{frame.payload};
        const auto it = pending.find(r.u64());
        if (it != pending.end()) it->second->cancel();
      }
    }
  } catch (const Error& e) {
    log_error("replica-worker '", name, "': ", e.what());
    rc = error_kind_exit_code(e.kind());
  } catch (const std::exception& e) {
    log_error("replica-worker '", name, "': ", e.what());
    rc = error_kind_exit_code(ErrorKind::kFatal);
  }
  stop_beats.store(true, std::memory_order_release);
  beats.join();
  if (wake >= 0) ::close(wake);
  return rc;
}

}  // namespace sdd::serve
