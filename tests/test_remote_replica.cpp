// Fork-based tests for cross-process serving replicas (src/serve/
// remote_replica) and the router's cross-process mode: the spawn_fn test seam
// forks a real worker process (no exec) so the full IPC protocol, heartbeat
// lease, crash respawn, rolling swap, and router failover run against live
// pids. The whole file compiles out under TSan (fork + threads is outside
// its model); thread-only coverage of the routing layer lives in
// test_router.cpp.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDD_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SDD_TSAN 1
#endif

#if !defined(SDD_TSAN)

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "serve/remote_replica.hpp"
#include "serve/router.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"
#include "util/ipc.hpp"
#include "util/proc.hpp"
#include "util/signals.hpp"
#include "util/supervisor.hpp"

namespace sdd {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using serve::RemoteReplica;
using serve::RemoteReplicaConfig;
using serve::Request;
using serve::RequestState;
using serve::RouteRequest;
using serve::RouterConfig;
using serve::VariantRouter;
using serve::VariantSpec;
using testing::tiny_config;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("sdd_remote_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  static inline std::atomic<int> counter_{0};
  fs::path path_;
};

// Spawn seam: fork (no exec) and run the worker entry point directly in the
// child. The tiny test models sit far below the kernel parallel-dispatch
// thresholds, so the child never touches the thread pool it inherited
// workerless from the fork.
RemoteReplicaConfig fork_config() {
  RemoteReplicaConfig config;
  config.heartbeat_ms = 15;
  config.lease_ms = 500;
  config.backoff_ms = 20;
  config.backoff_cap_ms = 100;
  config.spawn_fn = [](int child_fd, const std::string& model_path,
                       const std::string& name) -> std::int64_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      signals::install_graceful_shutdown();
      ::_exit(serve::replica_worker_main(model_path, name, child_fd, 15));
    }
    return static_cast<std::int64_t>(pid);
  };
  return config;
}

Request request_for(std::uint64_t salt) {
  Request request;
  request.prompt = {static_cast<std::int32_t>(1 + salt % 7),
                    static_cast<std::int32_t>(3 + salt % 11),
                    static_cast<std::int32_t>(2 + salt % 5)};
  request.max_new_tokens = 6;
  request.seed = 7000 + salt;
  return request;
}

std::vector<std::int32_t> reference_tokens(const nn::TransformerLM& model,
                                           const Request& request) {
  nn::GenerateOptions options;
  options.max_new_tokens = request.max_new_tokens;
  options.temperature = request.temperature;
  options.stop_token = request.stop_token;
  options.seed = request.seed;
  return nn::generate(model, request.prompt, options);
}

bool wait_until(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

constexpr auto kWait = 60s;  // generous terminal-state bound for CI machines

TEST(RemoteReplicaFork, ServesBitIdenticalAcrossProcessBoundary) {
  TempDir tmp;
  const nn::TransformerLM model{tiny_config(), 901};
  const std::string path = (tmp.path() / "full.bin").string();
  model.save(path);

  RemoteReplica replica{"full", path, fork_config(), serve::ServerConfig{},
                        [](const std::string&) {}};
  ASSERT_TRUE(wait_until([&] { return replica.ready(); }, 30s));
  EXPECT_GT(replica.cost(), 0);
  EXPECT_GT(replica.pid(), 1);

  for (std::uint64_t salt = 0; salt < 4; ++salt) {
    const Request request = request_for(salt);
    auto ticket = replica.submit(request);
    ASSERT_TRUE(ticket->wait_for(kWait));
    const serve::Response& response = ticket->wait();
    ASSERT_EQ(response.state, RequestState::kCompleted) << response.message;
    EXPECT_EQ(response.tokens, reference_tokens(model, request))
        << "tokens changed crossing the process boundary (salt " << salt
        << ")";
  }
  replica.shutdown();
}

TEST(RemoteReplicaFork, Kill9FailsTicketsOverAndRespawns) {
  TempDir tmp;
  const nn::TransformerLM model{tiny_config(), 902};
  const std::string path = (tmp.path() / "full.bin").string();
  model.save(path);

  std::atomic<int> deaths{0};
  RemoteReplica replica{"full", path, fork_config(), serve::ServerConfig{},
                        [&](const std::string&) { ++deaths; }};
  ASSERT_TRUE(wait_until([&] { return replica.ready(); }, 30s));
  const std::int64_t first_pid = replica.pid();

  ::kill(static_cast<pid_t>(first_pid), SIGKILL);

  // A submit racing the death resolves retryable worker_lost, never hangs.
  auto ticket = replica.submit(request_for(0));
  ASSERT_TRUE(ticket->wait_for(kWait));
  const serve::Response& during = ticket->wait();
  if (during.state != RequestState::kCompleted) {
    EXPECT_EQ(during.state, RequestState::kFailed);
    ASSERT_TRUE(during.error.has_value());
    EXPECT_EQ(*during.error, ErrorKind::kWorkerLost);
    EXPECT_TRUE(during.retryable);
  }

  // Supervision: death detected exactly once, then a respawn with a new pid.
  ASSERT_TRUE(wait_until(
      [&] { return replica.ready() && replica.pid() != first_pid; }, 30s));
  EXPECT_EQ(deaths.load(), 1);
  EXPECT_GE(replica.restarts(), 1);
  EXPECT_GE(replica.stats().respawns, 1);

  const Request request = request_for(1);
  auto after = replica.submit(request);
  ASSERT_TRUE(after->wait_for(kWait));
  ASSERT_EQ(after->wait().state, RequestState::kCompleted)
      << after->wait().message;
  EXPECT_EQ(after->wait().tokens, reference_tokens(model, request));
  replica.shutdown();
}

// Every unexpected death before HELLO counts against the respawn budget,
// and respawn k waits at least supervisor::backoff_delay_ms for death k.
TEST(RemoteReplicaFork, EachRespawnWaitsOutItsBackoff) {
  RemoteReplicaConfig config = fork_config();  // backoff 20 ms, cap 100 ms
  config.respawn_max = 4;
  std::mutex mutex;
  std::vector<std::int64_t> spawned_at;
  config.spawn_fn = [&](int, const std::string&, const std::string&) -> std::int64_t {
    {
      const std::lock_guard<std::mutex> lock{mutex};
      spawned_at.push_back(proc::monotonic_ms());
    }
    const pid_t pid = ::fork();
    if (pid == 0) ::_exit(1);
    return static_cast<std::int64_t>(pid);
  };
  std::atomic<int> deaths{0};
  RemoteReplica replica{"crashy", "unused.bin", config, serve::ServerConfig{},
                        [&](const std::string&) { ++deaths; }};
  // Deaths 1-4 respawn; the fifth exhausts the budget.
  ASSERT_TRUE(wait_until([&] { return deaths.load() == 5; }, 30s));
  std::this_thread::sleep_for(300ms);
  replica.shutdown();
  EXPECT_EQ(deaths.load(), 5);

  supervisor::SupervisorConfig backoff;
  backoff.backoff_ms = config.backoff_ms;
  backoff.backoff_cap_ms = config.backoff_cap_ms;
  const std::lock_guard<std::mutex> lock{mutex};
  ASSERT_EQ(spawned_at.size(), 5U);
  for (std::size_t death = 1; death < spawned_at.size(); ++death) {
    EXPECT_GE(spawned_at[death] - spawned_at[death - 1],
              supervisor::backoff_delay_ms(backoff, "crashy",
                                           static_cast<std::int64_t>(death) - 1))
        << "respawn after death " << death;
  }
}

TEST(RemoteReplicaFork, LeaseExpiryDetectsWedgedWorker) {
  TempDir tmp;
  const nn::TransformerLM model{tiny_config(), 903};
  const std::string path = (tmp.path() / "full.bin").string();
  model.save(path);

  RemoteReplicaConfig config = fork_config();
  config.lease_ms = 250;
  std::atomic<int> deaths{0};
  RemoteReplica replica{"full", path, config, serve::ServerConfig{},
                        [&](const std::string&) { ++deaths; }};
  ASSERT_TRUE(wait_until([&] { return replica.ready(); }, 30s));
  const std::int64_t first_pid = replica.pid();

  // SIGSTOP silences the heartbeat without killing the process: exactly what
  // a wedged worker looks like. The lease must expire, the supervisor must
  // SIGKILL the stopped pid, and the respawn must serve again.
  ::kill(static_cast<pid_t>(first_pid), SIGSTOP);

  ASSERT_TRUE(wait_until(
      [&] { return replica.ready() && replica.pid() != first_pid; }, 30s));
  EXPECT_GE(replica.stats().lease_expiries, 1);
  EXPECT_EQ(deaths.load(), 1);

  const Request request = request_for(2);
  auto ticket = replica.submit(request);
  ASSERT_TRUE(ticket->wait_for(kWait));
  ASSERT_EQ(ticket->wait().state, RequestState::kCompleted)
      << ticket->wait().message;
  EXPECT_EQ(ticket->wait().tokens, reference_tokens(model, request));
  replica.shutdown();
}

TEST(RemoteReplicaFork, SwapModelDrainsAndServesNewWeights) {
  TempDir tmp;
  const nn::TransformerLM v1{tiny_config(), 904};
  const nn::TransformerLM v2{tiny_config(), 905};
  const std::string path_v1 = (tmp.path() / "v1.bin").string();
  const std::string path_v2 = (tmp.path() / "v2.bin").string();
  v1.save(path_v1);
  v2.save(path_v2);

  std::atomic<int> deaths{0};
  RemoteReplica replica{"full", path_v1, fork_config(), serve::ServerConfig{},
                        [&](const std::string&) { ++deaths; }};
  ASSERT_TRUE(wait_until([&] { return replica.ready(); }, 30s));

  const Request request = request_for(3);
  {
    auto ticket = replica.submit(request);
    ASSERT_TRUE(ticket->wait_for(kWait));
    ASSERT_EQ(ticket->wait().state, RequestState::kCompleted);
    EXPECT_EQ(ticket->wait().tokens, reference_tokens(v1, request));
  }

  ASSERT_TRUE(replica.swap_model(path_v2, 30'000));
  EXPECT_GE(replica.restarts(), 1);
  EXPECT_GE(replica.stats().swaps, 1);
  // A drain is an intentional death: the breaker callback must NOT fire.
  EXPECT_EQ(deaths.load(), 0);

  {
    auto ticket = replica.submit(request);
    ASSERT_TRUE(ticket->wait_for(kWait));
    ASSERT_EQ(ticket->wait().state, RequestState::kCompleted)
        << ticket->wait().message;
    EXPECT_EQ(ticket->wait().tokens, reference_tokens(v2, request))
        << "post-swap decode still matches the old weights";
  }
  replica.shutdown();
}

// SIGTERM reaches a worker that holds accepted requests behind a stalled
// decode step: it stops reading, answers every one of them as it resolves
// (the stalled one timed out by the watchdog, the queued ones interrupted),
// and exits 72 once none is pending. The test plays the parent on the wire.
TEST(RemoteReplicaFork, SigtermedWorkerAnswersEveryPendingRequestAndExits72) {
  TempDir tmp;
  const nn::TransformerLM model{tiny_config(), 907};
  const std::string path = (tmp.path() / "full.bin").string();
  model.save(path);
  const auto type = [](serve::ReplicaFrame frame) {
    return static_cast<std::uint8_t>(frame);
  };
  const ipc::SocketPair pair = ipc::socket_pair();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pair.parent_fd);
    signals::install_graceful_shutdown();
    fault::configure("hang_decode:0,hang_cap:10000");  // the first step stalls
    ::_exit(serve::replica_worker_main(path, "full", pair.child_fd, 15));
  }
  ::close(pair.child_fd);
  const int fd = pair.parent_fd;
  serve::ServerConfig server;
  server.worker.hang_ms = 500;  // the watchdog ends the stall
  ipc::write_frame(fd, type(serve::ReplicaFrame::kConfig), config::to_text(server));

  // Requests 1-3 stall behind the first decode step; request 4 (an empty
  // prompt) is rejected at admission and answered at once, which proves the
  // worker has read the three before it.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Request request = request_for(id);
    if (id == 4) request.prompt.clear();
    ipc::write_frame(fd, type(serve::ReplicaFrame::kRequest),
                     serve::detail::encode_request(id, request));
  }
  std::map<std::uint64_t, int> answers;
  std::map<std::uint64_t, RequestState> states;
  const auto read_response = [&]() -> std::optional<std::uint64_t> {
    ipc::Frame frame;
    while (ipc::read_frame(fd, &frame, 30'000) == ipc::ReadStatus::kFrame) {
      if (frame.type != type(serve::ReplicaFrame::kResponse)) continue;
      serve::Response response;
      const std::uint64_t id = serve::detail::decode_response(frame.payload, &response);
      ++answers[id];
      states[id] = response.state;
      return id;
    }
    return std::nullopt;
  };
  std::optional<std::uint64_t> id;
  while ((id = read_response()) && *id != 4) {
  }
  ASSERT_EQ(id, std::optional<std::uint64_t>{4});
  EXPECT_EQ(states[4], RequestState::kRejected);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  while (read_response()) {
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(fd);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 72);
  for (std::uint64_t answered = 1; answered <= 4; ++answered) {
    EXPECT_EQ(answers[answered], 1) << "request " << answered;
  }
  EXPECT_EQ(states[1], RequestState::kFailed);
}

// Parents poll tickets by state, so a response frame must carry a terminal
// state. A worker that answers kRunning is broken: the ticket fails as
// retryable worker_lost instead of resolving with a non-terminal state.
TEST(RemoteReplicaFork, NonTerminalResponseStateCountsAsWorkerLost) {
  RemoteReplicaConfig config = fork_config();
  config.lease_ms = 10'000;  // the fake worker never heartbeats
  config.spawn_fn = [](int child_fd, const std::string&,
                       const std::string&) -> std::int64_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      const auto type = [](serve::ReplicaFrame frame) {
        return static_cast<std::uint8_t>(frame);
      };
      ipc::PayloadWriter hello;
      hello.i64(1);
      hello.i64(1);
      ipc::write_frame(child_fd, type(serve::ReplicaFrame::kHello), hello.bytes());
      ipc::Frame frame;
      while (ipc::read_frame(child_fd, &frame, 10'000) == ipc::ReadStatus::kFrame) {
        if (frame.type != type(serve::ReplicaFrame::kRequest)) continue;
        ipc::PayloadWriter response;  // a well-formed response but for its state
        response.u64(ipc::PayloadReader{frame.payload}.u64());
        response.u8(static_cast<std::uint8_t>(RequestState::kRunning));
        response.vec_i32({});
        response.u8(0);
        response.u8(0);
        response.u8(0);
        response.u8(0);
        response.str("");
        response.i64(0);
        response.i64(0);
        ipc::write_frame(child_fd, type(serve::ReplicaFrame::kResponse),
                         response.bytes());
      }
      ::_exit(0);
    }
    return static_cast<std::int64_t>(pid);
  };

  RemoteReplica replica{"fake", "unused.bin", config, serve::ServerConfig{},
                        [](const std::string&) {}};
  ASSERT_TRUE(wait_until([&] { return replica.ready(); }, 30s));
  auto ticket = replica.submit(request_for(0));
  ASSERT_TRUE(ticket->wait_for(kWait));
  const serve::Response& response = ticket->wait();
  EXPECT_EQ(response.state, RequestState::kFailed);
  ASSERT_TRUE(response.error.has_value());
  EXPECT_EQ(*response.error, ErrorKind::kWorkerLost);
  replica.shutdown();
}

// A response whose state byte or error byte lies outside its enum would
// resolve a ticket with a state no switch handles, so the router's stats
// would stop balancing. Either byte fails the ticket as retryable
// worker_lost, like a non-terminal state.
TEST(RemoteReplicaFork, OutOfRangeStateOrErrorByteCountsAsWorkerLost) {
  struct Case {
    std::uint8_t state, has_error, kind;
  };
  const auto completed = static_cast<std::uint8_t>(RequestState::kCompleted);
  for (const Case bad : {Case{8, 0, 0}, Case{255, 1, 3}, Case{completed, 1, 8},
                         Case{completed, 0, 200}}) {
    RemoteReplicaConfig config = fork_config();
    config.lease_ms = 10'000;  // the fake worker never heartbeats
    config.spawn_fn = [bad](int child_fd, const std::string&,
                            const std::string&) -> std::int64_t {
      const pid_t pid = ::fork();
      if (pid == 0) {
        const auto type = [](serve::ReplicaFrame frame) {
          return static_cast<std::uint8_t>(frame);
        };
        ipc::PayloadWriter hello;
        hello.i64(1);
        hello.i64(1);
        ipc::write_frame(child_fd, type(serve::ReplicaFrame::kHello), hello.bytes());
        ipc::Frame frame;
        while (ipc::read_frame(child_fd, &frame, 10'000) == ipc::ReadStatus::kFrame) {
          if (frame.type != type(serve::ReplicaFrame::kRequest)) continue;
          ipc::PayloadWriter response;  // well-formed but for one byte
          response.u64(ipc::PayloadReader{frame.payload}.u64());
          response.u8(bad.state);
          response.vec_i32({});
          response.u8(bad.has_error);
          response.u8(bad.kind);
          response.u8(0);
          response.u8(0);
          response.str("");
          response.i64(0);
          response.i64(0);
          ipc::write_frame(child_fd, type(serve::ReplicaFrame::kResponse),
                           response.bytes());
        }
        ::_exit(0);
      }
      return static_cast<std::int64_t>(pid);
    };

    RemoteReplica replica{"fake", "unused.bin", config, serve::ServerConfig{},
                        [](const std::string&) {}};
    ASSERT_TRUE(wait_until([&] { return replica.ready(); }, 30s));
    auto ticket = replica.submit(request_for(0));
    ASSERT_TRUE(ticket->wait_for(kWait));
    const serve::Response& response = ticket->wait();
    EXPECT_EQ(response.state, RequestState::kFailed)
        << "state " << int{bad.state} << ", error " << int{bad.kind};
    ASSERT_TRUE(response.error.has_value());
    EXPECT_EQ(*response.error, ErrorKind::kWorkerLost);
    replica.shutdown();
  }
}

// Seeded mutation fuzz of the replica wire codecs: every mutant of an
// encoded request or response decodes, or throws Error{worker_lost}. A
// decoded response always carries a terminal state and a known error kind.
TEST(ReplicaWire, MutatedPayloadsDecodeOrThrowWorkerLost) {
  std::vector<std::string> requests;
  for (std::uint64_t salt = 0; salt < 4; ++salt) {
    Request request = request_for(salt);
    request.task = salt % 2 == 0 ? "" : "gsm8k";
    request.deadline_ms = static_cast<std::int64_t>(salt * 100);
    requests.push_back(serve::detail::encode_request(salt + 1, request));
  }
  std::vector<std::string> responses;
  for (int state = static_cast<int>(RequestState::kCompleted);
       state <= static_cast<int>(RequestState::kFailed); ++state) {
    serve::Response response;
    response.state = static_cast<RequestState>(state);
    response.tokens.assign(static_cast<std::size_t>(state), state);
    if (state != static_cast<int>(RequestState::kCompleted)) {
      response.error = static_cast<ErrorKind>(state);
      response.message = "failed for a reason";
    }
    responses.push_back(serve::detail::encode_response(
        static_cast<std::uint64_t>(state), response));
  }

  Rng rng{0x3E91};
  std::int64_t decoded = 0;
  std::int64_t lost = 0;
  for (int i = 0; i < 10'000; ++i) {
    const bool is_request = i % 2 == 0;
    const std::string mutant = testing::mutate_bytes(is_request ? requests : responses, rng);
    try {
      if (is_request) {
        Request request;
        serve::detail::decode_request(mutant, &request);
      } else {
        serve::Response response;
        serve::detail::decode_response(mutant, &response);
        ASSERT_TRUE(serve::request_state_terminal(response.state)) << "mutant " << i;
        ASSERT_LE(static_cast<int>(response.state), static_cast<int>(RequestState::kFailed));
        if (response.error) {
          ASSERT_LE(static_cast<int>(*response.error), static_cast<int>(ErrorKind::kFatal));
        }
      }
      ++decoded;
    } catch (const Error& e) {
      ASSERT_EQ(e.kind(), ErrorKind::kWorkerLost) << "mutant " << i << ": " << e.what();
      ++lost;
    }
  }
  EXPECT_GT(decoded, 1'000);
  EXPECT_GT(lost, 1'000);
}

TEST(RemoteRouterFork, KilledWorkerFailsOverAndProbesBack) {
  TempDir tmp;
  const nn::TransformerLM full{tiny_config(), 906};
  const nn::TransformerLM p1 = full.pruned(2, 1);
  const std::string path_full = (tmp.path() / "full.bin").string();
  const std::string path_p1 = (tmp.path() / "p1.bin").string();
  full.save(path_full);
  p1.save(path_p1);

  RouterConfig config;
  config.breaker.open_after = 2;
  config.breaker.cooldown_ms = 100;
  config.cross_process = true;
  config.remote = fork_config();

  std::vector<VariantSpec> variants;
  variants.push_back({"full", {}, 0.9, path_full, 2});
  variants.push_back({"p1", {}, 0.6, path_p1, 1});
  VariantRouter router{std::move(variants), config};

  auto snapshot_of = [&](const std::string& name) {
    for (const auto& snap : router.replicas())
      if (snap.name == name) return snap;
    ADD_FAILURE() << "no replica named " << name;
    return serve::ReplicaSnapshot{};
  };
  ASSERT_TRUE(wait_until(
      [&] {
        return snapshot_of("full").pid > 1 && snapshot_of("p1").pid > 1;
      },
      30s));
  const std::int64_t full_pid = snapshot_of("full").pid;

  ::kill(static_cast<pid_t>(full_pid), SIGKILL);

  // Every request submitted across the crash must still complete — on the
  // sibling while 'full' is down — and the output must match whichever
  // variant served it bit-for-bit.
  std::vector<serve::RouteTicketPtr> tickets;
  for (std::uint64_t salt = 0; salt < 12; ++salt) {
    RouteRequest route;
    route.request = request_for(salt);
    tickets.push_back(router.submit(route));
    std::this_thread::sleep_for(10ms);
  }
  for (std::uint64_t salt = 0; salt < tickets.size(); ++salt) {
    ASSERT_TRUE(tickets[salt]->wait_for(kWait)) << "request " << salt;
    const serve::RouteResponse& routed = tickets[salt]->wait();
    ASSERT_EQ(routed.response.state, RequestState::kCompleted)
        << "request " << salt << ": " << routed.response.message;
    const nn::TransformerLM& served = routed.variant == "full" ? full : p1;
    EXPECT_EQ(routed.response.tokens,
              reference_tokens(served, request_for(salt)));
  }

  // The crash quarantined 'full' (breaker opened via the process-death
  // callback), the supervisor respawned it, and a half-open probe readmitted
  // it to healthy with a fresh pid.
  ASSERT_TRUE(wait_until(
      [&] {
        const auto snap = snapshot_of("full");
        return snap.health == serve::HealthState::kHealthy &&
               snap.pid > 1 && snap.pid != full_pid;
      },
      30s));
  EXPECT_GE(snapshot_of("full").restarts, 1);
  EXPECT_GE(snapshot_of("full").stats.breaker_opens, 1);

  router.shutdown();
}

// A cross-process worker serves with the router's ServerConfig, not with
// defaults rebuilt from its environment: a one-slot server with a one-deep
// queue rejects most of a burst that the default 8 slots and 64-deep queue
// would take whole.
TEST(RemoteRouterFork, WorkerServesWithTheRoutersServerConfig) {
  TempDir tmp;
  const nn::TransformerLM full{tiny_config(), 907};
  const std::string path = (tmp.path() / "full.bin").string();
  full.save(path);

  RouterConfig config;
  config.failover_max = 0;
  config.cross_process = true;
  config.remote = fork_config();
  config.server.queue_capacity = 1;
  config.server.max_batch = 1;
  std::vector<VariantSpec> variants;
  variants.push_back({"full", {}, 0.9, path, 1});
  VariantRouter router{std::move(variants), config};
  ASSERT_TRUE(wait_until([&] { return router.replicas()[0].pid > 1; }, 30s));

  std::vector<serve::RouteTicketPtr> tickets;
  for (std::uint64_t salt = 0; salt < 32; ++salt) {
    RouteRequest route;
    route.request = request_for(salt);
    route.request.max_new_tokens = 40;
    tickets.push_back(router.submit(route));
  }
  std::int64_t rejected = 0;
  for (std::uint64_t salt = 0; salt < tickets.size(); ++salt) {
    ASSERT_TRUE(tickets[salt]->wait_for(kWait)) << "request " << salt;
    const serve::Response& response = tickets[salt]->wait().response;
    if (response.state == RequestState::kRejected) {
      ++rejected;
    } else {
      ASSERT_EQ(response.state, RequestState::kCompleted) << response.message;
      Request request = request_for(salt);
      request.max_new_tokens = 40;
      EXPECT_EQ(response.tokens, reference_tokens(full, request));
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, 32);
  router.shutdown();
}

}  // namespace
}  // namespace sdd

#endif  // !SDD_TSAN
