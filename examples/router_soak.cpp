// Chaos soak for the replicated multi-variant router (scripts/router_soak.sh).
//
// Builds a tiny full model plus two depth-pruned variants, hosts all three
// behind a VariantRouter, fires concurrent clients at it, and asserts the
// routing-layer invariants under fault injection:
//   * every submitted request reaches a terminal typed RouteResponse — no
//     request is ever lost, no deadlock, even with a dead variant;
//   * stats balance: router resolved == submitted;
//   * per-variant determinism: whichever replica completed a request —
//     including after failover rerouting — its tokens are a prefix of the
//     unloaded nn::generate reference for THAT variant (equal when the
//     request completed undegraded), i.e. byte-identical to a no-chaos run;
//   * under replica_fail chaos the dead variant's breaker opens
//     (quarantine), half-open probes eventually close it again once the
//     failure window passes, and the router recorded failovers meanwhile;
//   * under breaker_flap chaos the breaker opened at least once.
//
// Faults come from SDD_FAULT (see src/util/fault.hpp) and are armed only
// after the models are built and the
// per-variant reference outputs are decoded, so injector ordinals count
// routed dispatches, not setup work. A malformed spec exits 64 (EX_USAGE).
//
// Exit codes: 0 = all invariants held, 3 = an invariant was violated.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "serve/router.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

using namespace sdd;
using namespace std::chrono_literals;

namespace {

struct Submitted {
  serve::RouteRequest request;
  serve::RouteTicketPtr ticket;
};

nn::ModelConfig soak_model_config() {
  nn::ModelConfig config;
  config.vocab_size = env_int("SDD_ROUTE_SOAK_VOCAB", 96);
  config.d_model = env_int("SDD_ROUTE_SOAK_DMODEL", 32);
  config.n_heads = env_int("SDD_ROUTE_SOAK_HEADS", 2);
  config.n_layers = env_int("SDD_ROUTE_SOAK_LAYERS", 4);
  config.d_ff = env_int("SDD_ROUTE_SOAK_DFF", 48);
  config.max_seq_len = env_int("SDD_ROUTE_SOAK_CTX", 64);
  return config;
}

serve::RouteRequest request_for(std::uint64_t index) {
  serve::RouteRequest route;
  route.request.prompt = {static_cast<std::int32_t>(1 + index % 13),
                          static_cast<std::int32_t>(2 + index % 7),
                          static_cast<std::int32_t>(5 + index % 19)};
  route.request.max_new_tokens = 6 + static_cast<std::int64_t>(index % 8);
  route.request.temperature = index % 3 == 0 ? 0.0F : 0.6F;
  route.request.seed = 9000 + index;
  route.request.priority = static_cast<std::int32_t>(index % 4);
  // Mixed deadlines: none, generous, and tight enough to exercise the
  // degradation-by-routing path (tight deadlines prefer cheap variants).
  route.request.deadline_ms = index % 5 == 0 ? 30 : (index % 2 == 0 ? 0 : 5000);
  // Some requests pin a specific pruned variant, like a client that already
  // knows which quality tier it wants.
  if (index % 7 == 3) route.variant = "p1";
  return route;
}

std::vector<std::int32_t> reference_tokens(const nn::TransformerLM& model,
                                           const serve::Request& request) {
  nn::GenerateOptions options;
  options.max_new_tokens = request.max_new_tokens;
  options.temperature = request.temperature;
  options.stop_token = request.stop_token;
  options.seed = request.seed;
  return nn::generate(model, request.prompt, options);
}

}  // namespace

int main() {
  // Setup and reference decoding run fault-free; SDD_FAULT is armed after.
  const fault::Spec faults = fault::env_spec();
  fault::reset();

  // The variant family the paper produces: the full model plus depth-pruned
  // variants (which SDD recovery would fine-tune; weights here are random —
  // only routing behavior and byte-level determinism are under test).
  const nn::TransformerLM full{soak_model_config(), 2025};
  const nn::TransformerLM p1 = full.pruned(2, 1);
  const nn::TransformerLM p2 = full.pruned(1, 2);

  serve::RouterConfig config = serve::RouterConfig::from_env();
  config.server.queue_capacity = env_int("SDD_SERVE_QUEUE_CAP", 8);
  config.server.max_batch = env_int("SDD_SERVE_MAX_BATCH", 4);

  std::vector<serve::VariantSpec> variants;
  variants.push_back({"full", full.clone(), 0.9});
  variants.push_back({"p1", p1.clone(), 0.7});
  variants.push_back({"p2", p2.clone(), 0.55});
  const std::vector<const nn::TransformerLM*> models{&full, &p1, &p2};
  const std::vector<std::string> names{"full", "p1", "p2"};

  const std::int64_t clients = env_int("SDD_ROUTE_SOAK_CLIENTS", 4);
  const std::int64_t per_client = env_int("SDD_ROUTE_SOAK_PER_CLIENT", 12);
  const auto total = static_cast<std::size_t>(clients * per_client);

  // Per-variant reference outputs, decoded fault-free before arming
  // anything: reference[v][i] is what request i must produce if it lands on
  // (or fails over to) variant v.
  std::vector<std::vector<std::vector<std::int32_t>>> reference(models.size());
  for (std::size_t v = 0; v < models.size(); ++v) {
    reference[v].resize(total);
    for (std::size_t i = 0; i < total; ++i) {
      reference[v][i] = reference_tokens(*models[v], request_for(i).request);
    }
  }

  fault::configure(faults);

  serve::VariantRouter router{std::move(variants), config};

  std::vector<Submitted> submitted(total);
  std::vector<std::thread> client_threads;
  for (std::int64_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (std::int64_t r = 0; r < per_client; ++r) {
        const auto index = static_cast<std::size_t>(c * per_client + r);
        Submitted& entry = submitted[index];
        entry.request = request_for(index);
        entry.ticket = router.submit(entry.request);
      }
    });
  }
  for (auto& thread : client_threads) thread.join();

  // Invariant 1: every request terminates (bounded wait, then hard fail).
  std::int64_t unresolved = 0;
  std::int64_t determinism_violations = 0;
  std::int64_t rerouted = 0;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    serve::RouteTicket& ticket = *submitted[i].ticket;
    if (!ticket.wait_for(120s)) {
      ++unresolved;
      std::fprintf(stderr, "router_soak: request %zu never resolved\n", i);
      continue;
    }
    const serve::RouteResponse& routed = ticket.wait();
    if (!serve::request_state_terminal(routed.response.state)) {
      ++unresolved;
      continue;
    }
    if (routed.rerouted) ++rerouted;
    if (routed.variant.empty()) continue;  // never reached a replica
    const auto v = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), routed.variant) - names.begin());
    if (v >= names.size()) {
      ++determinism_violations;
      std::fprintf(stderr, "router_soak: request %zu reports unknown variant "
                   "'%s'\n", i, routed.variant.c_str());
      continue;
    }
    // Invariant 3: byte-identical to the no-chaos decode on that variant.
    const auto& ref = reference[v][i];
    const auto& got = routed.response.tokens;
    const bool prefix = got.size() <= ref.size() &&
                        std::equal(got.begin(), got.end(), ref.begin());
    const bool full_required =
        routed.response.state == serve::RequestState::kCompleted &&
        !routed.response.degraded;
    if (!prefix || (full_required && got != ref)) {
      ++determinism_violations;
      std::fprintf(stderr,
                   "router_soak: request %zu diverged on variant %s "
                   "(state=%s, hops=%lld, %zu tokens vs %zu reference)\n",
                   i, routed.variant.c_str(),
                   std::string{request_state_name(routed.response.state)}.c_str(),
                   static_cast<long long>(routed.hops), got.size(), ref.size());
    }
  }

  // Recovery phase: once the target replica fails it ranks behind the
  // healthy variants, so unpinned traffic may never reach it again. Drive
  // requests pinned to it, one at a time, until its breaker has opened and
  // its fault window is used up (dispatch ordinals count the target's
  // dispatches, exactly ReplicaStats::dispatched) and, with a bounded
  // replica_fail window, until half-open probes close the breaker again.
  // breaker_flap's window repeats, so there only the opening counts.
  using fault::Directive;
  const bool flap = faults.armed(Directive::breaker_flap);
  const bool expect_recovery = faults.armed(Directive::replica_fail);
  const auto target =
      static_cast<std::size_t>(faults.value(Directive::replica_idx));
  const std::int64_t window_end =
      expect_recovery ? faults.value(Directive::replica_fail) +
                            faults.value(Directive::replica_fail_n)
                      : 0;
  if ((expect_recovery || flap) && target < names.size()) {
    const auto recovery_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{30};
    std::uint64_t extra = 0;
    while (std::chrono::steady_clock::now() < recovery_deadline) {
      const serve::ReplicaSnapshot snap = router.replicas()[target];
      if (snap.stats.breaker_opens >= 1 && snap.stats.dispatched >= window_end &&
          (!expect_recovery || snap.health == serve::HealthState::kHealthy)) {
        break;
      }
      serve::RouteRequest route = request_for(extra % total);
      route.variant = names[target];
      route.request.deadline_ms = 0;
      router.submit(route)->wait_for(5s);
      ++extra;
      std::this_thread::sleep_for(20ms);
    }
  }

  router.shutdown();

  const serve::RouterStats stats = router.stats();
  std::printf("router_soak: submitted=%lld resolved=%lld completed=%lld "
              "timeout=%lld cancelled=%lld shed=%lld rejected=%lld "
              "failed=%lld failovers=%lld exhausted=%lld injected=%lld "
              "rerouted_burst=%lld\n",
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.resolved()),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.timed_out),
              static_cast<long long>(stats.cancelled),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.failed),
              static_cast<long long>(stats.failovers),
              static_cast<long long>(stats.exhausted),
              static_cast<long long>(stats.injected_failures),
              static_cast<long long>(rerouted));
  for (const serve::ReplicaSnapshot& snap : router.replicas()) {
    std::printf("router_soak: replica %-5s health=%-9s dispatched=%lld "
                "completed=%lld failures=%lld backpressure=%lld opens=%lld "
                "probes=%lld probe_ok=%lld\n",
                snap.name.c_str(),
                std::string{serve::health_state_name(snap.health)}.c_str(),
                static_cast<long long>(snap.stats.dispatched),
                static_cast<long long>(snap.stats.completed),
                static_cast<long long>(snap.stats.breaker_failures),
                static_cast<long long>(snap.stats.backpressure),
                static_cast<long long>(snap.stats.breaker_opens),
                static_cast<long long>(snap.stats.probes),
                static_cast<long long>(snap.stats.probe_successes));
  }

  bool ok = true;
  if (unresolved > 0) {
    std::fprintf(stderr, "router_soak: %lld request(s) never terminated\n",
                 static_cast<long long>(unresolved));
    ok = false;
  }
  if (stats.resolved() != stats.submitted) {
    std::fprintf(stderr, "router_soak: stats leak: %lld submitted, %lld "
                 "resolved\n", static_cast<long long>(stats.submitted),
                 static_cast<long long>(stats.resolved()));
    ok = false;
  }
  if (determinism_violations > 0) {
    std::fprintf(stderr, "router_soak: %lld determinism violation(s)\n",
                 static_cast<long long>(determinism_violations));
    ok = false;
  }
  if (stats.completed == 0) {
    std::fprintf(stderr, "router_soak: nothing completed — degenerate run\n");
    ok = false;
  }
  if (expect_recovery && target < names.size()) {
    const serve::ReplicaSnapshot snap = router.replicas()[target];
    if (snap.stats.breaker_opens < 1) {
      std::fprintf(stderr, "router_soak: dead variant '%s' never quarantined "
                   "(breaker_opens=0)\n", snap.name.c_str());
      ok = false;
    }
    if (snap.stats.probe_successes < 1 ||
        snap.health != serve::HealthState::kHealthy) {
      std::fprintf(stderr, "router_soak: variant '%s' never recovered via "
                   "half-open probe (health=%s, probe_ok=%lld)\n",
                   snap.name.c_str(),
                   std::string{serve::health_state_name(snap.health)}.c_str(),
                   static_cast<long long>(snap.stats.probe_successes));
      ok = false;
    }
    if (stats.failovers < 1) {
      std::fprintf(stderr, "router_soak: chaos armed but no failover "
                   "recorded\n");
      ok = false;
    }
  }
  if (flap && target < names.size() &&
      router.replicas()[target].stats.breaker_opens < 1) {
    std::fprintf(stderr, "router_soak: breaker_flap armed but the breaker "
                 "never opened\n");
    ok = false;
  }
  fault::reset();
  std::printf("router_soak: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 3;
}
