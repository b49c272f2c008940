// Chaos soak for the batched inference serving layer (scripts/serve_soak.sh).
//
// Builds a tiny model, fires concurrent clients at an InferenceServer at a
// configurable multiple of queue capacity (default 4x), and asserts the
// serving-layer invariants under fault injection:
//   * every submitted request reaches a terminal state (completion, deadline
//     timeout, or a typed shed/rejection/failure) — no crash, no deadlock;
//   * stats balance: resolved == submitted;
//   * per-request determinism: every response's tokens are a prefix of the
//     unloaded-server reference output for that request (equal when the
//     request completed undegraded), regardless of batching or faults.
//
// Faults come from SDD_FAULT (see src/util/fault.hpp) and are armed only
// after the model is built and the reference outputs are decoded, so
// injector counters (alloc_fail:at=N, hang_decode:N, nan_decode:N) are
// relative to serving work, not setup. A malformed spec exits 64 (EX_USAGE).
// The model is also round-tripped through the fault-instrumented artifact
// store before serving (exercising slow_io/io_fail); a failed store is
// tolerated — serving continues from the in-memory model.
//
// Exit codes: 0 = all invariants held, 3 = an invariant was violated.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "serve/serve.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

using namespace sdd;
using namespace std::chrono_literals;

namespace {

struct Submitted {
  serve::Request request;
  serve::TicketPtr ticket;
};

nn::ModelConfig soak_model_config() {
  nn::ModelConfig config;
  config.vocab_size = env_int("SDD_SERVE_SOAK_VOCAB", 96);
  config.d_model = env_int("SDD_SERVE_SOAK_DMODEL", 32);
  config.n_heads = env_int("SDD_SERVE_SOAK_HEADS", 2);
  config.n_layers = env_int("SDD_SERVE_SOAK_LAYERS", 3);
  config.d_ff = env_int("SDD_SERVE_SOAK_DFF", 48);
  config.max_seq_len = env_int("SDD_SERVE_SOAK_CTX", 64);
  return config;
}

serve::Request request_for(std::uint64_t index) {
  serve::Request request;
  request.prompt = {static_cast<std::int32_t>(1 + index % 13),
                    static_cast<std::int32_t>(2 + index % 7),
                    static_cast<std::int32_t>(5 + index % 19)};
  request.max_new_tokens = 6 + static_cast<std::int64_t>(index % 8);
  request.temperature = index % 3 == 0 ? 0.0F : 0.6F;
  request.seed = 9000 + index;
  request.priority = static_cast<std::int32_t>(index % 4);
  // Mixed deadlines: none, generous, and tight-enough-to-sometimes-expire.
  request.deadline_ms = index % 5 == 0 ? 30 : (index % 2 == 0 ? 0 : 5000);
  return request;
}

}  // namespace

int main() {
  // Setup and reference decoding run fault-free; SDD_FAULT is armed after.
  const fault::Spec faults = fault::env_spec();
  fault::reset();

  const nn::TransformerLM model{soak_model_config(), 2025};

  serve::ServerConfig config = serve::ServerConfig::from_env();
  config.queue_capacity = env_int("SDD_SERVE_QUEUE_CAP", 8);
  config.max_batch = env_int("SDD_SERVE_MAX_BATCH", 4);
  config.degrade_max_new_tokens = env_int("SDD_SERVE_DEGRADE_MAX_TOKENS", 4);

  const std::int64_t clients = env_int("SDD_SERVE_SOAK_CLIENTS", 4);
  const std::int64_t load_factor = env_int("SDD_SERVE_SOAK_LOAD", 4);
  const std::int64_t total_requests = config.queue_capacity * load_factor;
  const std::int64_t per_client =
      std::max<std::int64_t>(1, total_requests / std::max<std::int64_t>(1, clients));

  // Reference outputs decoded fault-free before arming anything.
  std::vector<std::vector<std::int32_t>> reference(
      static_cast<std::size_t>(clients * per_client));
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const serve::Request request = request_for(i);
    nn::GenerateOptions options;
    options.max_new_tokens = request.max_new_tokens;
    options.temperature = request.temperature;
    options.stop_token = request.stop_token;
    options.seed = request.seed;
    reference[i] = nn::generate(model, request.prompt, options);
  }

  fault::configure(faults);

  // Round-trip the model through the fault-instrumented artifact store
  // (exercises slow_io / io faults; alloc_fail can also fire on the load
  // path). A broken or poisoned store must not stop serving: fall back to
  // the already-built in-memory model. SDD_SERVE_SOAK_STORE=0 skips the
  // round-trip so allocation faults target the serving layer instead.
  std::optional<nn::TransformerLM> loaded;
  if (env_int("SDD_SERVE_SOAK_STORE", 1) != 0) {
    const std::filesystem::path model_path =
        std::filesystem::temp_directory_path() /
        ("sdd_serve_soak_model_" + std::to_string(::getpid()) + ".bin");
    try {
      model.save(model_path);
      loaded.emplace(nn::TransformerLM::load(model_path));
      if (loaded->weight_hash() != model.weight_hash()) {
        std::fprintf(stderr, "serve_soak: model round-trip changed weights\n");
        std::filesystem::remove(model_path);
        return 3;
      }
    } catch (const std::exception& e) {
      log_warn("serve_soak: artifact store unavailable (", e.what(),
               "); serving from the in-memory model");
      loaded.reset();
    }
    std::error_code ec;
    std::filesystem::remove(model_path, ec);
  }

  serve::InferenceServer server{loaded ? *loaded : model, config};

  std::vector<Submitted> submitted(
      static_cast<std::size_t>(clients * per_client));
  std::vector<std::thread> client_threads;
  for (std::int64_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      for (std::int64_t r = 0; r < per_client; ++r) {
        const auto index = static_cast<std::size_t>(c * per_client + r);
        Submitted& entry = submitted[index];
        entry.request = request_for(index);
        entry.ticket = server.submit(entry.request);
      }
    });
  }
  for (auto& thread : client_threads) thread.join();

  // Invariant 1: every request terminates (bounded wait, then hard fail).
  std::int64_t prefix_violations = 0;
  std::int64_t unresolved = 0;
  std::vector<std::int64_t> by_state(8, 0);
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    serve::Ticket& ticket = *submitted[i].ticket;
    if (!ticket.wait_for(120s)) {
      ++unresolved;
      std::fprintf(stderr, "serve_soak: request %zu never resolved\n", i);
      continue;
    }
    const serve::Response& response = ticket.wait();
    ++by_state[static_cast<std::size_t>(response.state)];
    if (!serve::request_state_terminal(response.state)) {
      ++unresolved;
      continue;
    }
    // Invariant 3: output is a prefix of the unloaded reference.
    const auto& ref = reference[i];
    const auto& got = response.tokens;
    const bool prefix =
        got.size() <= ref.size() && std::equal(got.begin(), got.end(), ref.begin());
    const bool full_required =
        response.state == serve::RequestState::kCompleted && !response.degraded;
    if (!prefix || (full_required && got != ref)) {
      ++prefix_violations;
      std::fprintf(stderr,
                   "serve_soak: request %zu output diverged (state=%s, "
                   "%zu tokens vs %zu reference)\n",
                   i, std::string{request_state_name(response.state)}.c_str(),
                   got.size(), ref.size());
    }
  }
  server.shutdown();

  const serve::ServerStats stats = server.stats();
  std::printf("serve_soak: submitted=%lld resolved=%lld completed=%lld "
              "timeout=%lld cancelled=%lld shed=%lld rejected=%lld "
              "failed=%lld degraded=%lld recycles=%lld peak_batch=%lld\n",
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.resolved()),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.timed_out),
              static_cast<long long>(stats.cancelled),
              static_cast<long long>(stats.shed),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.failed),
              static_cast<long long>(stats.degraded),
              static_cast<long long>(stats.worker_recycles),
              static_cast<long long>(stats.peak_active));

  bool ok = true;
  if (unresolved > 0) {
    std::fprintf(stderr, "serve_soak: %lld request(s) never terminated\n",
                 static_cast<long long>(unresolved));
    ok = false;
  }
  if (stats.resolved() != stats.submitted) {
    std::fprintf(stderr, "serve_soak: stats leak: %lld submitted, %lld resolved\n",
                 static_cast<long long>(stats.submitted),
                 static_cast<long long>(stats.resolved()));
    ok = false;
  }
  if (prefix_violations > 0) {
    std::fprintf(stderr, "serve_soak: %lld determinism violation(s)\n",
                 static_cast<long long>(prefix_violations));
    ok = false;
  }
  if (stats.completed == 0) {
    std::fprintf(stderr, "serve_soak: nothing completed — degenerate run\n");
    ok = false;
  }
  fault::reset();
  std::printf("serve_soak: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 3;
}
