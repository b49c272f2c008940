// Chaos soak for self-speculative decoding (scripts/spec_soak.sh).
//
// Builds a tiny full model plus depth-pruned drafts, then drives the
// speculative decode path three ways — the one-shot speculative_generate()
// API, an InferenceServer with a paired draft, and a VariantRouter with
// SDD_SPEC_DRAFT-style pairing — and asserts the load-bearing invariant
// under fault injection:
//
//   * bit-identity: every speculative output equals the target's unassisted
//     greedy decode, byte for byte, for every draft depth, with or without
//     injected rejection storms and draft NaNs;
//   * a rejection storm (spec_reject_storm) collapses the acceptance rate —
//     with the target drafting for itself, to exactly zero — but never
//     changes output bytes;
//   * clean self-drafting accepts everything (acceptance rate 1.0);
//   * a poisoned draft (draft_nan) degrades rounds to target-only steps
//     (draft_fallbacks > 0) instead of failing any request.
//
// Faults come from SDD_FAULT (see src/util/fault.hpp) and are armed only
// after the models are built and the
// reference outputs are decoded, so injector ordinals count speculative
// work, not setup. A malformed spec exits 64 (EX_USAGE).
//
// Exit codes: 0 = all invariants held, 3 = an invariant was violated.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "nn/decode.hpp"
#include "nn/speculative.hpp"
#include "nn/transformer.hpp"
#include "serve/router.hpp"
#include "serve/serve.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"

using namespace sdd;
using namespace std::chrono_literals;

namespace {

nn::ModelConfig soak_model_config() {
  nn::ModelConfig config;
  config.vocab_size = env_int("SDD_SPEC_SOAK_VOCAB", 96);
  config.d_model = env_int("SDD_SPEC_SOAK_DMODEL", 32);
  config.n_heads = env_int("SDD_SPEC_SOAK_HEADS", 2);
  config.n_layers = env_int("SDD_SPEC_SOAK_LAYERS", 4);
  config.d_ff = env_int("SDD_SPEC_SOAK_DFF", 48);
  config.max_seq_len = env_int("SDD_SPEC_SOAK_CTX", 64);
  return config;
}

std::vector<std::int32_t> prompt_for(std::uint64_t index) {
  return {static_cast<std::int32_t>(1 + index % 13),
          static_cast<std::int32_t>(2 + index % 7),
          static_cast<std::int32_t>(5 + index % 19),
          static_cast<std::int32_t>(3 + index % 11)};
}

int failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    ++failures;
    std::fprintf(stderr, "spec_soak: INVARIANT VIOLATED: %s\n", what);
  }
}

}  // namespace

int main() {
  // Setup and reference decoding run fault-free; SDD_FAULT is armed after.
  const fault::Spec faults = fault::env_spec();
  fault::reset();

  const std::int64_t k = env_int("SDD_SPEC_K", 4);
  const std::int64_t n_prompts = env_int("SDD_SPEC_SOAK_PROMPTS", 8);
  const std::int64_t max_new = env_int("SDD_SPEC_SOAK_MAX_NEW", 12);

  // The paper's variant family: the full model drafting for itself (the
  // acceptance-rate ceiling) plus depth-pruned drafts, deepest last.
  const nn::TransformerLM full{soak_model_config(), 2025};
  std::vector<std::pair<std::string, nn::TransformerLM>> drafts;
  drafts.emplace_back("self", full.clone());
  drafts.emplace_back("p1", full.pruned(2, 1));
  drafts.emplace_back("p2", full.pruned(1, 2));

  nn::GenerateOptions options;
  options.max_new_tokens = max_new;
  options.temperature = 0.0F;

  // Fault-free references, decoded before anything is armed.
  std::vector<std::vector<std::int32_t>> reference(
      static_cast<std::size_t>(n_prompts));
  for (std::int64_t i = 0; i < n_prompts; ++i) {
    reference[static_cast<std::size_t>(i)] = nn::generate(
        full, prompt_for(static_cast<std::uint64_t>(i)), options);
  }

  fault::configure(faults);
  const bool storm_full =
      faults.probability(fault::Directive::spec_reject_storm) >= 1.0;
  const bool clean = !faults.armed();

  // ---- phase 1: one-shot API, every draft depth x every prompt ------------
  for (const auto& [name, draft] : drafts) {
    nn::SpecCounters counters;
    bool identical = true;
    for (std::int64_t i = 0; i < n_prompts; ++i) {
      const auto output = nn::speculative_generate(
          full, draft, prompt_for(static_cast<std::uint64_t>(i)), options, k,
          &counters);
      identical =
          identical && output == reference[static_cast<std::size_t>(i)];
    }
    std::printf(
        "spec_soak: draft %-4s layers=%lld rounds=%lld accepted=%lld/%lld "
        "(%.0f%%) corrections=%lld bonus=%lld solo=%lld fallbacks=%lld %s\n",
        name.c_str(), static_cast<long long>(draft.n_layers()),
        static_cast<long long>(counters.rounds),
        static_cast<long long>(counters.accepted),
        static_cast<long long>(counters.proposed),
        counters.acceptance_rate() * 100.0,
        static_cast<long long>(counters.corrections),
        static_cast<long long>(counters.bonus),
        static_cast<long long>(counters.solo),
        static_cast<long long>(counters.draft_fallbacks),
        identical ? "identical" : "DIVERGED");
    expect(identical, "speculative output diverged from plain greedy decode");
    if (name == "self") {
      if (clean) {
        expect(counters.proposed > 0 && counters.acceptance_rate() == 1.0,
               "clean self-drafting must accept every proposal");
      }
      if (storm_full && counters.proposed > 0) {
        // Corruption shifts every proposal off the target's argmax, which
        // for a self-draft IS the proposal: nothing can be accepted.
        expect(counters.accepted == 0,
               "full rejection storm must drive self-draft acceptance to 0");
      }
    }
    if (faults.armed(fault::Directive::draft_nan) && name == "self") {
      expect(counters.draft_fallbacks > 0,
             "draft_nan armed but no round degraded to a target-only step");
    }
  }

  // ---- phase 2: serving layer with a paired draft -------------------------
  for (const auto& [name, draft] : drafts) {
    fault::configure(faults);  // restart the counters
    serve::ServerConfig config = serve::ServerConfig::from_env();
    config.queue_capacity = std::max<std::int64_t>(n_prompts, 8);
    config.degrade_queue_depth = config.queue_capacity;  // no budget clamping
    config.spec_k = k;
    serve::InferenceServer server{full, config, &draft};
    std::vector<serve::TicketPtr> tickets;
    for (std::int64_t i = 0; i < n_prompts; ++i) {
      serve::Request request;
      request.prompt = prompt_for(static_cast<std::uint64_t>(i));
      request.max_new_tokens = max_new;
      request.temperature = 0.0F;
      request.task = "soak";
      tickets.push_back(server.submit(std::move(request)));
    }
    bool identical = true;
    std::int64_t completed = 0;
    for (std::int64_t i = 0; i < n_prompts; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!tickets[idx]->wait_for(120s)) {
        expect(false, "serve request never resolved");
        continue;
      }
      const serve::Response& response = tickets[idx]->wait();
      if (response.state != serve::RequestState::kCompleted) continue;
      ++completed;
      identical = identical && response.tokens == reference[idx];
    }
    const serve::ServerStats stats = server.stats();
    server.shutdown();
    std::printf(
        "spec_soak: serve draft %-4s completed=%lld/%lld spec_requests=%lld "
        "acceptance=%.0f%% fallbacks=%lld %s\n",
        name.c_str(), static_cast<long long>(completed),
        static_cast<long long>(n_prompts),
        static_cast<long long>(stats.spec_requests),
        stats.spec.acceptance_rate() * 100.0,
        static_cast<long long>(stats.spec.draft_fallbacks),
        identical ? "identical" : "DIVERGED");
    expect(identical, "served speculative output diverged from reference");
    expect(completed == n_prompts, "speculative serving failed requests");
    expect(stats.spec_requests == n_prompts,
           "greedy requests on a draft-equipped server must decode "
           "speculatively");
    expect(stats.spec_by_task.count("soak") == 1,
           "per-task acceptance telemetry missing the 'soak' bucket");
  }

  // ---- phase 3: router pairing (the deepest draft serves its siblings) ----
  {
    fault::configure(faults);  // restart the counters
    serve::RouterConfig config = serve::RouterConfig::from_env();
    config.spec_draft = "p2";
    config.server.spec_k = k;
    config.server.queue_capacity = std::max<std::int64_t>(n_prompts, 8);
    config.server.degrade_queue_depth = config.server.queue_capacity;
    std::vector<serve::VariantSpec> variants;
    variants.push_back({"full", full.clone(), 0.9});
    variants.push_back({"p2", drafts.back().second.clone(), 0.55});
    serve::VariantRouter router{std::move(variants), config};
    std::vector<serve::RouteTicketPtr> tickets;
    for (std::int64_t i = 0; i < n_prompts; ++i) {
      serve::RouteRequest route;
      route.request.prompt = prompt_for(static_cast<std::uint64_t>(i));
      route.request.max_new_tokens = max_new;
      route.request.temperature = 0.0F;
      route.task = "soak";
      route.variant = "full";  // pin: the reference decode is the full model's
      tickets.push_back(router.submit(std::move(route)));
    }
    bool identical = true;
    std::int64_t completed = 0;
    for (std::int64_t i = 0; i < n_prompts; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!tickets[idx]->wait_for(120s)) {
        expect(false, "routed request never resolved");
        continue;
      }
      const serve::RouteResponse& routed = tickets[idx]->wait();
      if (routed.response.state != serve::RequestState::kCompleted ||
          routed.variant != "full") {
        continue;
      }
      ++completed;
      identical = identical && routed.response.tokens == reference[idx];
    }
    std::int64_t spec_requests = 0;
    bool task_bucket = true;
    for (const serve::ReplicaSnapshot& snap : router.replicas()) {
      if (snap.name == "full") {
        spec_requests = snap.server.spec_requests;
        task_bucket = snap.server.spec_by_task.count("soak") == 1;
      }
    }
    router.shutdown();
    std::printf(
        "spec_soak: router completed=%lld/%lld full.spec_requests=%lld %s\n",
        static_cast<long long>(completed), static_cast<long long>(n_prompts),
        static_cast<long long>(spec_requests),
        identical ? "identical" : "DIVERGED");
    expect(identical, "routed speculative output diverged from reference");
    expect(completed == n_prompts, "router pairing failed requests");
    expect(spec_requests == n_prompts,
           "SDD_SPEC_DRAFT pairing did not engage speculative decode");
    expect(task_bucket, "router task label missing from serve telemetry");
  }

  fault::reset();
  std::printf("spec_soak: %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 3;
}
