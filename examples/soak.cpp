// One chaos-soak driver for every suite in scripts/soak.sh's case table:
//
//   soak pipeline  the paper's pipeline (pretrain -> prune -> self-data
//                  distill -> LoRA recover -> eval) writing a deterministic
//                  digest (weight hashes + metrics) to SDD_SOAK_OUT; the
//                  runner crashes it at SDD_FAULT points, reruns it on the
//                  same cache and cmp's the digest against a clean run's
//   soak serve     4 clients at 4x queue capacity against one InferenceServer
//   soak router    4 clients against a full/p1/p2 VariantRouter
//   soak replica   the same with every variant in a `replica-worker` child
//                  process (this binary re-execs itself: `soak replica-worker`)
//   soak spec      speculative decode through the one-shot API, a server
//                  with a paired draft, and router draft pairing
//
// The serving suites build their models and decode fault-free references
// first, then arm SDD_FAULT (replica: the router hands SDD_CHILD_FAULT to the
// first worker of variant replica_idx), so fault ordinals count serving work,
// not setup. They then check, per suite:
//   * every request reaches a terminal state within 120 s, and the stats
//     balance (resolved == submitted);
//   * every output is a prefix of the fault-free nn::generate decode on the
//     variant that served it, and all of it when it completed undegraded;
//   * something completed, so the run was not degenerate;
//   * serve: the fault-instrumented store round-trips the model's weights;
//   * router: replica_fail quarantines the target, a half-open probe brings
//     it back healthy and failovers were recorded; breaker_flap opens it;
//   * replica: any worker chaos quarantines, respawns (restarts >= 1) and
//     probes the target back healthy, with failovers; SDD_REPLICA_SOAK_SWAP=1
//     swaps `full` onto a new checkpoint mid-run and pinned requests then
//     decode exactly that checkpoint's reference;
//   * spec: speculative output equals plain greedy decode in all three
//     phases; clean self-drafting accepts everything, a full rejection storm
//     accepts nothing, draft_nan degrades rounds to target-only steps.
//
// Exit codes: 0 = every invariant held (pipeline: digest written),
// 3 = an invariant was violated, 2 = usage or setup error, 64 = malformed
// fault spec or SDD_* value, 137 = injected crash.
#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/suite.hpp"
#include "nn/decode.hpp"
#include "nn/speculative.hpp"
#include "nn/transformer.hpp"
#include "serve/router.hpp"
#include "serve/serve.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/signals.hpp"
#include "util/supervisor.hpp"

using namespace sdd;
using namespace std::chrono_literals;

namespace {

using Tokens = std::vector<std::int32_t>;
using ll = long long;

constexpr std::int64_t kClients = 4;
const std::array<std::string, 3> kNames{"full", "p1", "p2"};
const std::array<double, 3> kQuality{0.9, 0.7, 0.55};

std::string suite;
int failures = 0;

// Counts and reports a violated invariant; returns `ok`.
[[gnu::format(printf, 2, 3)]] bool expect(bool ok, const char* format, ...) {
  if (ok) return true;
  ++failures;
  std::fprintf(stderr, "soak %s: ", suite.c_str());
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  return false;
}

int verdict() {
  std::printf("soak %s: %s\n", suite.c_str(), failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 3;
}

// A fresh mkdtemp directory under TMPDIR, removed on every exit path.
struct TempDir {
  std::filesystem::path path;
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "sdd_soak_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::system_error(errno, std::generic_category(), "mkdtemp");
    }
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// Serve soaks a 3-layer model; the variant families prune a 4-layer one.
nn::ModelConfig model_config(std::int64_t layers) {
  nn::ModelConfig config;
  config.vocab_size = 96;
  config.d_model = 32;
  config.n_heads = 2;
  config.n_layers = layers;
  config.d_ff = 48;
  config.max_seq_len = 64;
  return config;
}

// The paper's variant family: the full model plus two depth-pruned variants.
// Weights are random: only serving behaviour and byte-level determinism are
// under test.
struct Family {
  nn::TransformerLM full{model_config(4), 2025};
  nn::TransformerLM p1 = full.pruned(2, 1);
  nn::TransformerLM p2 = full.pruned(1, 2);
  std::array<const nn::TransformerLM*, 3> models{&full, &p1, &p2};
};

// Request i of the serving mix. `tight` adds 30 ms deadlines that sometimes
// expire (and that send routed requests to cheap variants); the replica suite
// leaves them out, since its hops pay spawn and IPC latency.
serve::Request request_for(std::uint64_t i, bool tight) {
  serve::Request request;
  request.prompt = {static_cast<std::int32_t>(1 + i % 13),
                    static_cast<std::int32_t>(2 + i % 7),
                    static_cast<std::int32_t>(5 + i % 19)};
  request.max_new_tokens = 6 + static_cast<std::int64_t>(i % 8);
  request.temperature = i % 3 == 0 ? 0.0F : 0.6F;
  request.seed = 9000 + i;
  request.priority = static_cast<std::int32_t>(i % 4);
  request.deadline_ms = tight ? (i % 5 == 0 ? 30 : (i % 2 == 0 ? 0 : 5000))
                              : (i % 2 == 0 ? 0 : 20000);
  return request;
}

serve::RouteRequest route_for(std::uint64_t i, bool tight) {
  serve::RouteRequest route;
  route.request = request_for(i, tight);
  if (i % 7 == 3) route.variant = "p1";  // a client that wants one tier
  return route;
}

nn::GenerateOptions options_for(const serve::Request& request) {
  nn::GenerateOptions options;
  options.max_new_tokens = request.max_new_tokens;
  options.temperature = request.temperature;
  options.stop_token = request.stop_token;
  options.seed = request.seed;
  return options;
}

// The fault-free decode a served request must reproduce on `model`.
Tokens reference(const nn::TransformerLM& model, const serve::Request& request) {
  return nn::generate(model, request.prompt, options_for(request));
}

// A response may stop early (deadline, degraded clamp, failure) but never
// diverge: a prefix of the reference, and all of it if completed undegraded.
bool matches(const serve::Response& response, const Tokens& ref) {
  const Tokens& got = response.tokens;
  const bool prefix = got.size() <= ref.size() &&
                      std::equal(got.begin(), got.end(), ref.begin());
  const bool whole = response.state != serve::RequestState::kCompleted ||
                     response.degraded || got == ref;
  return prefix && whole;
}

// Request i of kClients * per_client, submitted by kClients concurrent
// clients that each own a contiguous run of indices.
template <typename Submit>
auto fan_out(std::int64_t per_client, Submit submit) {
  std::vector<decltype(submit(std::size_t{0}))> tickets(
      static_cast<std::size_t>(kClients * per_client));
  std::vector<std::thread> clients;
  for (std::int64_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::int64_t r = 0; r < per_client; ++r) {
        const auto i = static_cast<std::size_t>(c * per_client + r);
        tickets[i] = submit(i);
      }
    });
  }
  for (auto& client : clients) client.join();
  return tickets;
}

const serve::Response& response_of(const serve::Response& r) { return r; }
const serve::Response& response_of(const serve::RouteResponse& r) {
  return r.response;
}

// Waits for request i; null, and a failure, unless it reached a terminal
// state within 120 s.
template <typename TicketPtr>
auto settle(const TicketPtr& ticket, std::size_t i)
    -> decltype(&ticket->wait()) {
  const bool done = ticket->wait_for(120s) &&
                    serve::request_state_terminal(
                        response_of(ticket->wait()).state);
  expect(done, "request %zu never terminated", i);
  return done ? &ticket->wait() : nullptr;
}

int run_pipeline() {
  core::PipelineConfig config = core::PipelineConfig::standard();
  core::Pipeline pipeline{config};
  const nn::TransformerLM& base = pipeline.base_model();
  const nn::TransformerLM recovered =
      pipeline.recovered(1, core::FtMethod::kSelfDataDistill, "gsm8k",
                         env_int("SDD_SOAK_DATASET_SIZE", 16));

  eval::SuiteSpec spec;
  spec.mc_items = env_int("SDD_SOAK_ITEMS", 6);
  spec.gen_items = spec.mc_items;
  const auto scores = supervisor::supervised(
      "eval", config.supervise, [&]() -> eval::SuiteScores {
        return eval::evaluate_suite(recovered, pipeline.world(),
                                    eval::core_tasks(), spec);
      });

  // Plain stdio, outside the fault-instrumented artifact path: the digest
  // reports results, it is not an artifact under test.
  const std::string out_path = env_string(
      "SDD_SOAK_OUT", (pipeline.cache().directory() / "soak_result.txt").string());
  std::ofstream out{out_path, std::ios::trunc};
  out << "base_weight_hash " << hash_hex(base.weight_hash()) << '\n';
  out << "recovered_weight_hash " << hash_hex(recovered.weight_hash()) << '\n';
  char buffer[64];
  for (const auto& [name, score] : scores.tasks) {
    std::snprintf(buffer, sizeof(buffer), "%.10f", score);
    out << "metric " << name << ' ' << buffer << '\n';
  }
  std::snprintf(buffer, sizeof(buffer), "%.10f", scores.average);
  out << "metric average " << buffer << '\n';
  out.flush();
  if (!out) {
    log_error("soak: failed to write ", out_path);
    return 1;
  }
  std::printf("soak pipeline: digest written to %s\n", out_path.c_str());
  return 0;
}

int run_serve() {
  const fault::Spec faults = fault::env_spec();
  fault::reset();
  const nn::TransformerLM model{model_config(3), 2025};
  const serve::ServerConfig config = serve::RouterConfig::from_env().server;
  const std::int64_t per_client = config.queue_capacity;  // 4x capacity
  std::vector<Tokens> ref(static_cast<std::size_t>(kClients * per_client));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = reference(model, request_for(i, true));
  }
  fault::configure(faults);

  // Round-trip the model through the fault-instrumented artifact store
  // (slow_io, io_fail, alloc_fail on the load path). A failed store is
  // tolerated: serving falls back to the in-memory model.
  std::optional<nn::TransformerLM> loaded;
  if (env_flag("SDD_SERVE_SOAK_STORE", true)) {
    const TempDir dir;
    try {
      model.save(dir.path / "model.bin");
      loaded.emplace(nn::TransformerLM::load(dir.path / "model.bin"));
    } catch (const std::exception& e) {
      log_warn("soak serve: artifact store unavailable (", e.what(),
               "); serving from the in-memory model");
      loaded.reset();
    }
    if (!expect(!loaded || loaded->weight_hash() == model.weight_hash(),
                "model round-trip changed weights")) {
      return verdict();
    }
  }

  serve::InferenceServer server{loaded ? *loaded : model, config};
  const auto tickets = fan_out(
      per_client, [&](std::size_t i) { return server.submit(request_for(i, true)); });
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (const serve::Response* response = settle(tickets[i], i)) {
      expect(matches(*response, ref[i]),
             "request %zu diverged (state=%s, %zu tokens vs %zu reference)", i,
             std::string{request_state_name(response->state)}.c_str(),
             response->tokens.size(), ref[i].size());
    }
  }
  server.shutdown();

  const serve::ServerStats stats = server.stats();
  std::printf("soak serve: submitted=%lld resolved=%lld completed=%lld "
              "timeout=%lld cancelled=%lld shed=%lld rejected=%lld "
              "failed=%lld degraded=%lld recycles=%lld peak_batch=%lld\n",
              ll(stats.submitted), ll(stats.resolved()), ll(stats.completed),
              ll(stats.timed_out), ll(stats.cancelled), ll(stats.shed),
              ll(stats.rejected), ll(stats.failed), ll(stats.degraded),
              ll(stats.worker_recycles), ll(stats.peak_active));
  expect(stats.resolved() == stats.submitted,
         "stats leak: %lld submitted, %lld resolved", ll(stats.submitted),
         ll(stats.resolved()));
  expect(stats.completed > 0, "nothing completed: degenerate run");
  fault::reset();
  return verdict();
}

// Rolling upgrade: drain `full`, respawn it on new weights, and check pinned
// requests decode exactly the new checkpoint's reference.
void check_swap(serve::VariantRouter& router, const std::filesystem::path& dir) {
  const nn::TransformerLM next{model_config(4), 4242};
  const std::string path = (dir / "full_v2.bin").string();
  next.save(path);
  serve::Replica* replica = router.replica("full");
  if (!expect(replica != nullptr, "no 'full' replica to swap") ||
      !expect(replica->swap_model(path, 15000),
              "swap_model never saw the new generation's HELLO")) {
    return;
  }
  for (std::uint64_t i = 0; i < 8; ++i) {
    serve::RouteRequest route = route_for(i, false);
    route.variant = "full";
    route.request.deadline_ms = 0;
    // The RouteResponse lives inside the ticket: keep it alive past wait().
    const serve::RouteTicketPtr ticket = router.submit(route);
    const serve::RouteResponse& routed = ticket->wait();
    expect(routed.response.state == serve::RequestState::kCompleted &&
               routed.variant == "full" &&
               routed.response.tokens == reference(next, route.request),
           "post-swap request %llu is not the new checkpoint's decode on "
           "'full' (state=%s, variant=%s)",
           static_cast<unsigned long long>(i),
           std::string{request_state_name(routed.response.state)}.c_str(),
           routed.variant.c_str());
  }
  expect(router.replicas()[0].restarts >= 1,
         "swap completed but no restart recorded");
}

// The router suite in-process; the replica suite with every variant in a
// worker process and chaos (SDD_CHILD_FAULT) inside the workers only.
int run_router(bool cross_process) {
  const fault::Spec faults =
      fault::env_spec(cross_process ? fault::kChildEnv : "SDD_FAULT");
  fault::reset();
  const TempDir dir;
  const Family family;
  const bool tight = !cross_process;
  const std::int64_t per_client = 12;
  const auto total = static_cast<std::size_t>(kClients * per_client);

  // ref[v][i]: the bytes request i must produce on variant v, whether
  // it lands there directly or after failover.
  std::vector<std::vector<Tokens>> ref(kNames.size(), std::vector<Tokens>(total));
  std::vector<serve::VariantSpec> variants(kNames.size());
  for (std::size_t v = 0; v < kNames.size(); ++v) {
    const nn::TransformerLM& model = *family.models[v];
    for (std::size_t i = 0; i < total; ++i) {
      ref[v][i] = reference(model, request_for(i, tight));
    }
    variants[v].name = kNames[v];
    variants[v].quality = kQuality[v];
    variants[v].cost_hint = model.param_count();
    if (cross_process) {
      variants[v].path = (dir.path / (kNames[v] + ".bin")).string();
      model.save(variants[v].path);
    } else {
      variants[v].model = model.clone();
    }
  }
  if (!cross_process) fault::configure(faults);

  serve::RouterConfig config = serve::RouterConfig::from_env();
  config.cross_process = cross_process;
  serve::VariantRouter router{std::move(variants), std::move(config)};
  const auto tickets = fan_out(
      per_client, [&](std::size_t i) { return router.submit(route_for(i, tight)); });
  std::int64_t completed = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const serve::RouteResponse* routed = settle(tickets[i], i);
    if (routed == nullptr || routed->variant.empty()) continue;  // no replica
    const auto v = static_cast<std::size_t>(
        std::find(kNames.begin(), kNames.end(), routed->variant) - kNames.begin());
    if (!expect(v < kNames.size(), "request %zu reports unknown variant '%s'",
                i, routed->variant.c_str())) {
      continue;
    }
    expect(matches(routed->response, ref[v][i]),
           "request %zu diverged on variant %s (state=%s, hops=%lld, %zu "
           "tokens vs %zu reference)",
           i, routed->variant.c_str(),
           std::string{request_state_name(routed->response.state)}.c_str(),
           ll(routed->hops), routed->response.tokens.size(), ref[v][i].size());
    completed += routed->response.state == serve::RequestState::kCompleted;
  }

  // What the chaos must do to the target: in-process, replica_fail
  // quarantines it and probes it back, breaker_flap only opens it;
  // cross-process, any worker chaos quarantines, respawns and probes back.
  using fault::Directive;
  const auto target = static_cast<std::size_t>(faults.value(Directive::replica_idx));
  const bool recover =
      cross_process ? faults.armed() : faults.armed(Directive::replica_fail);
  const bool quarantine =
      target < kNames.size() && (recover || faults.armed(Directive::breaker_flap));
  const std::int64_t window_end =
      faults.armed(Directive::replica_fail)
          ? faults.value(Directive::replica_fail) +
                faults.value(Directive::replica_fail_n)
          : 0;
  const auto recovered = [&](const serve::ReplicaSnapshot& snap) {
    return snap.stats.breaker_opens >= 1 &&
           (!recover || (snap.health == serve::HealthState::kHealthy &&
                         snap.stats.probe_successes >= 1));
  };

  // Recovery: keep offering traffic until the target's fault window is used
  // up (dispatch ordinals count exactly ReplicaStats::dispatched) and it
  // reached that state. In-process, a failed replica ranks behind its
  // siblings, so the traffic is pinned to it; a respawned worker is reached
  // by plain traffic.
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  for (std::uint64_t extra = 0;
       quarantine && std::chrono::steady_clock::now() < deadline; ++extra) {
    const serve::ReplicaSnapshot snap = router.replicas()[target];
    if (recovered(snap) && snap.stats.dispatched >= window_end) break;
    serve::RouteRequest route = route_for(extra % total, tight);
    route.variant = cross_process ? "" : kNames[target];
    route.request.deadline_ms = 0;
    router.submit(route)->wait_for(10s);
    std::this_thread::sleep_for(20ms);
  }
  if (cross_process && env_flag("SDD_REPLICA_SOAK_SWAP", false)) {
    check_swap(router, dir.path);
  }

  const std::vector<serve::ReplicaSnapshot> snaps = router.replicas();
  router.shutdown();
  const serve::RouterStats stats = router.stats();
  std::printf("soak %s: submitted=%lld resolved=%lld completed=%lld "
              "timeout=%lld cancelled=%lld shed=%lld rejected=%lld "
              "failed=%lld failovers=%lld exhausted=%lld injected=%lld\n",
              suite.c_str(), ll(stats.submitted), ll(stats.resolved()),
              ll(stats.completed), ll(stats.timed_out), ll(stats.cancelled),
              ll(stats.shed), ll(stats.rejected), ll(stats.failed),
              ll(stats.failovers), ll(stats.exhausted),
              ll(stats.injected_failures));
  for (const serve::ReplicaSnapshot& snap : snaps) {
    std::printf("soak %s: replica %-5s health=%-9s pid=%lld restarts=%lld "
                "beat_age=%lldms dispatched=%lld completed=%lld failures=%lld "
                "backpressure=%lld opens=%lld probes=%lld probe_ok=%lld\n",
                suite.c_str(), snap.name.c_str(),
                std::string{serve::health_state_name(snap.health)}.c_str(),
                ll(snap.pid), ll(snap.restarts), ll(snap.heartbeat_age_ms),
                ll(snap.stats.dispatched), ll(snap.stats.completed),
                ll(snap.stats.breaker_failures), ll(snap.stats.backpressure),
                ll(snap.stats.breaker_opens), ll(snap.stats.probes),
                ll(snap.stats.probe_successes));
  }

  expect(stats.resolved() == stats.submitted,
         "stats leak: %lld submitted, %lld resolved", ll(stats.submitted),
         ll(stats.resolved()));
  expect(completed > 0, "nothing completed: degenerate run");
  if (quarantine) {
    const serve::ReplicaSnapshot& snap = snaps[target];
    expect(recovered(snap),
           "variant '%s' not quarantined and probed back (opens=%lld, "
           "health=%s, probe_ok=%lld)",
           snap.name.c_str(), ll(snap.stats.breaker_opens),
           std::string{serve::health_state_name(snap.health)}.c_str(),
           ll(snap.stats.probe_successes));
    expect(!recover || stats.failovers >= 1, "chaos armed but no failover");
    expect(!cross_process || snap.restarts >= 1,
           "variant '%s' never respawned", snap.name.c_str());
  }
  fault::reset();
  return verdict();
}

serve::Request spec_request(std::uint64_t i) {
  serve::Request request;
  request.prompt = {static_cast<std::int32_t>(1 + i % 13),
                    static_cast<std::int32_t>(2 + i % 7),
                    static_cast<std::int32_t>(5 + i % 19),
                    static_cast<std::int32_t>(3 + i % 11)};
  request.max_new_tokens = 12;
  request.temperature = 0.0F;
  return request;
}

int run_spec() {
  const fault::Spec faults = fault::env_spec();
  fault::reset();
  const serve::RouterConfig base = serve::RouterConfig::from_env();
  const std::int64_t k = base.server.spec_k;
  if (!expect(k > 0, "needs SDD_SPEC_K > 0")) return verdict();
  constexpr std::int64_t kPrompts = 8;

  // The full model drafting for itself (the acceptance-rate ceiling), then
  // the depth-pruned drafts, deepest last.
  const Family family;
  const nn::TransformerLM self = family.full.clone();
  const std::array<std::pair<const char*, const nn::TransformerLM*>, 3> drafts{
      {{"self", &self}, {"p1", &family.p1}, {"p2", &family.p2}}};
  std::vector<Tokens> ref(kPrompts);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = reference(family.full, spec_request(i));
  }

  fault::configure(faults);
  const bool storm_full =
      faults.probability(fault::Directive::spec_reject_storm) >= 1.0;

  // Phase 1: the one-shot API, every draft depth x every prompt.
  for (const auto& [name, draft] : drafts) {
    nn::SpecCounters counters;
    bool identical = true;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const serve::Request request = spec_request(i);
      identical = identical &&
                  nn::speculative_generate(family.full, *draft, request.prompt,
                                           options_for(request), k,
                                           &counters) == ref[i];
    }
    std::printf(
        "soak spec: draft %-4s layers=%lld rounds=%lld accepted=%lld/%lld "
        "(%.0f%%) corrections=%lld bonus=%lld solo=%lld fallbacks=%lld %s\n",
        name, ll(draft->n_layers()), ll(counters.rounds), ll(counters.accepted),
        ll(counters.proposed), counters.acceptance_rate() * 100.0,
        ll(counters.corrections), ll(counters.bonus), ll(counters.solo),
        ll(counters.draft_fallbacks), identical ? "identical" : "DIVERGED");
    expect(identical, "speculative output diverged from plain greedy decode");
    if (draft != &self) continue;
    expect(faults.armed() ||
               (counters.proposed > 0 && counters.acceptance_rate() == 1.0),
           "clean self-drafting must accept every proposal");
    // Corruption shifts every proposal off the target's argmax, which for a
    // self-draft IS the proposal: nothing can be accepted.
    expect(!storm_full || counters.proposed == 0 || counters.accepted == 0,
           "full rejection storm must drive self-draft acceptance to 0");
    expect(!faults.armed(fault::Directive::draft_nan) ||
               counters.draft_fallbacks > 0,
           "draft_nan armed but no round degraded to a target-only step");
  }

  // Phase 2: an InferenceServer with each draft paired.
  serve::ServerConfig server_config = base.server;
  server_config.queue_capacity = std::max<std::int64_t>(kPrompts, 8);
  server_config.degrade_queue_depth = server_config.queue_capacity;  // no clamp
  for (const auto& [name, draft] : drafts) {
    fault::configure(faults);  // restart the counters
    serve::InferenceServer server{family.full, server_config, draft};
    std::vector<serve::TicketPtr> tickets;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      serve::Request request = spec_request(i);
      request.task = "soak";
      tickets.push_back(server.submit(std::move(request)));
    }
    bool identical = true;
    std::int64_t completed = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const serve::Response* response = settle(tickets[i], i);
      if (response == nullptr ||
          response->state != serve::RequestState::kCompleted) {
        continue;
      }
      ++completed;
      identical = identical && response->tokens == ref[i];
    }
    const serve::ServerStats stats = server.stats();
    server.shutdown();
    std::printf("soak spec: serve draft %-4s completed=%lld/%lld "
                "spec_requests=%lld acceptance=%.0f%% fallbacks=%lld %s\n",
                name, ll(completed), ll(kPrompts), ll(stats.spec_requests),
                stats.spec.acceptance_rate() * 100.0,
                ll(stats.spec.draft_fallbacks),
                identical ? "identical" : "DIVERGED");
    expect(identical, "served speculative output diverged from reference");
    expect(completed == kPrompts, "speculative serving failed requests");
    expect(stats.spec_requests == kPrompts,
           "greedy requests on a draft-equipped server must decode "
           "speculatively");
    expect(stats.spec_by_task.count("soak") == 1,
           "per-task acceptance telemetry missing the 'soak' bucket");
  }

  // Phase 3: router pairing, the deepest draft serving `full`.
  fault::configure(faults);  // restart the counters
  serve::RouterConfig config = base;
  config.spec_draft = "p2";
  config.server = server_config;
  std::vector<serve::VariantSpec> variants;
  variants.push_back({"full", family.full.clone(), 0.9, {}, 0});
  variants.push_back({"p2", family.p2.clone(), 0.55, {}, 0});
  serve::VariantRouter router{std::move(variants), config};
  std::vector<serve::RouteTicketPtr> tickets;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    serve::RouteRequest route;
    route.request = spec_request(i);
    route.task = "soak";
    route.variant = "full";  // the reference is the full model's decode
    tickets.push_back(router.submit(std::move(route)));
  }
  bool identical = true;
  std::int64_t completed = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const serve::RouteResponse* routed = settle(tickets[i], i);
    if (routed == nullptr ||
        routed->response.state != serve::RequestState::kCompleted ||
        routed->variant != "full") {
      continue;
    }
    ++completed;
    identical = identical && routed->response.tokens == ref[i];
  }
  const serve::ReplicaSnapshot full = router.replicas()[0];
  router.shutdown();
  std::printf("soak spec: router completed=%lld/%lld full.spec_requests=%lld %s\n",
              ll(completed), ll(kPrompts), ll(full.server.spec_requests),
              identical ? "identical" : "DIVERGED");
  expect(identical, "routed speculative output diverged from reference");
  expect(completed == kPrompts, "router pairing failed requests");
  expect(full.server.spec_requests == kPrompts,
         "SDD_SPEC_DRAFT pairing did not engage speculative decode");
  expect(full.server.spec_by_task.count("soak") == 1,
         "router task label missing from serve telemetry");
  fault::reset();
  return verdict();
}

// `soak replica-worker --model M --name N --fd F --heartbeat H`: the argv
// RemoteReplica spawns through proc::kSelfExe, so the soak runs the production
// spawn path.
int run_worker(int argc, char** argv) {
  std::string model;
  std::string name = "replica";
  int fd = -1;
  std::int64_t heartbeat_ms = 25;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--model") model = value;
    if (key == "--name") name = value;
    if (key == "--fd") fd = static_cast<int>(std::stol(value));
    if (key == "--heartbeat") heartbeat_ms = std::stoll(value);
  }
  signals::install_graceful_shutdown();
  return serve::replica_worker_main(model, name, fd, heartbeat_ms);
}

}  // namespace

int main(int argc, char** argv) {
  suite = argc >= 2 ? argv[1] : "";
  try {
    if (suite == "replica-worker") return run_worker(argc, argv);
    if (suite == "pipeline") return run_pipeline();
    if (suite == "serve") return run_serve();
    if (suite == "router" || suite == "replica") return run_router(suite == "replica");
    if (suite == "spec") return run_spec();
  } catch (const config::EnvError& e) {
    std::fprintf(stderr, "soak %s: %s\n", suite.c_str(), e.what());
    return 64;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soak %s: %s\n", suite.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "usage: soak pipeline|serve|router|replica|spec\n");
  return 2;
}
