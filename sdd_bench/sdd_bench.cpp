// sdd_bench: end-to-end benchmark of the serving stack and the SDD pipeline.
//
//   sdd_bench --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--json <file>] [--spans <file>] [--workdir <dir>] [--smoke]
//
// Workloads (README.md says why each exists):
//   chat          full + 4-block-pruned d64 variants behind an in-process
//                 VariantRouter; short prompts, decode-bound
//   long_prompt   same models; 96-128 token prompts sharing a 64-token prefix
//   wide_spec     d256 target with a speculative draft at acceptance 1.0
//   replica_proc  chat's traffic with each variant in a replica-worker process
//   sdd_pipeline  pretrain -> prune -> self-distill -> LoRA recover -> eval,
//                 cold cache every repetition
//
// Serving workloads run phase A (open-loop Poisson arrivals, timed from each
// request's scheduled send) then phase B (closed loop, fixed client count)
// from one load-generator thread that polls tickets every 200 us. Every run
// checks outputs: a fixed sample of served responses is recomputed with
// sequential nn::generate on the same weights, and the pipeline must give
// identical quality and weights on every repetition.
//
// Each metric prints as `<metric> <workload> <value> <unit>`; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}. Without
// --trace the metrics are the end-to-end ones, with --trace 1 the per-layer
// ones, taken from spans the benchmark records around its calls into each
// layer plus a replay of sampled requests through public nn calls.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench_stats.hpp"
#include "core/pipeline.hpp"
#include "data/corpus.hpp"
#include "data/vocab.hpp"
#include "eval/flops.hpp"
#include "eval/suite.hpp"
#include "nn/decode.hpp"
#include "nn/speculative.hpp"
#include "serve/router.hpp"
#include "tensor/kernels.hpp"
#include "util/log.hpp"
#include "util/signals.hpp"
#include "util/threadpool.hpp"

namespace sb = sdd_bench;
namespace fs = std::filesystem;
using namespace sdd;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) { return sb::percentile(std::move(values), 50.0); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

// ---- metric schema: BENCHMARK.json names exactly these ---------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"tokens_per_s", "tok/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"client.latency_p50_ms", "ms"},
    {"client.latency_p90_ms", "ms"},
    {"client.latency_p99_ms", "ms"},
    {"client.lag_p99_ms", "ms"},
    {"client.slo_attain", "frac"},
    {"client.sent_a", "count"},
    {"client.completed_a", "count"},
    {"client.sent_b", "count"},
    {"client.completed_b", "count"},
    {"client.output_match", "frac"},
    {"client.error_rate", "frac"},
    {"router.overhead_p50_ms", "ms"},
    {"router.submit_us_p50", "us"},
    {"router.failovers", "count"},
    {"router.exhausted", "count"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.round_ms_p50", "ms"},
    {"serve.peak_active", "count"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"serve.timed_out", "count"},
    {"serve.degraded", "count"},
    {"serve.worker_recycles", "count"},
    {"nn.decode_step_us.full", "us"},
    {"nn.decode_step_us.pruned", "us"},
    {"nn.pruned_saving_realized", "frac"},
    {"nn.pruned_saving_analytic", "frac"},
    {"nn.prefill_step_us_per_tok", "us"},
    {"nn.prefill_span_us_per_tok", "us"},
    {"nn.attn_us", "us"},
    {"nn.ffn_us", "us"},
    {"nn.head_us", "us"},
    {"nn.sample_us.greedy", "us"},
    {"nn.sample_us.t08", "us"},
    {"nn.gflops", "GFLOP/s"},
    {"nn.weight_mb_per_token", "MB"},
    {"spec.acceptance", "frac"},
    {"spec.tokens_per_round", "count"},
    {"spec.verify_us", "us"},
    {"spec.draft_step_us", "us"},
    {"remote.overhead_p50_ms", "ms"},
    {"remote.spawn_s", "s"},
    {"remote.restarts", "count"},
    {"remote.heartbeat_age_ms_max", "ms"},
    {"pipeline.pass_s", "s"},
    {"pipeline.pretrain_s", "s"},
    {"pipeline.prune_s", "s"},
    {"pipeline.distill_s", "s"},
    {"pipeline.recover_s", "s"},
    {"pipeline.eval_s", "s"},
    {"train.pretrain_tok_per_s", "tok/s"},
    {"eval.task_s.arc_c", "s"},
    {"eval.task_s.hellaswag", "s"},
    {"eval.task_s.truthfulqa", "s"},
    {"eval.task_s.mmlu", "s"},
    {"eval.task_s.winogrande", "s"},
    {"eval.task_s.gsm8k", "s"},
    {"cache.bytes", "bytes"},
    {"distill.accept_rate", "frac"},
    {"pipeline.quality_avg", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // ~1 s phases and the tiny pipeline scale
  std::string json_path;
  std::string spans_path;
  fs::path workdir = ".bench_build/work";
};

// Metrics of one workload run. Per-layer metrics a workload does not
// exercise stay 0 (e.g. pipeline stages on a serving workload).
class Report {
 public:
  explicit Report(std::string workload) : workload_{std::move(workload)} {}

  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "sdd_bench: %s: check failed: %s\n", workload_.c_str(),
                 what.c_str());
  }
  bool correct() const { return correct_; }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Prints `<metric> <workload> <value> <unit>` lines and returns the result
  // JSON object.
  std::string print(bool trace) const {
    std::string metrics;
    for (const MetricDef& def : defs(trace)) {
      std::printf("%s %s %.10g %s\n", def.name, workload_.c_str(), get(def.name),
                  def.unit);
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + std::string{def.name} + "\": {\"value\": " +
                 format_number(get(def.name)) + ", \"unit\": \"" + def.unit + "\"}";
    }
    return "{\"correct\": " + std::string{correct_ ? "true" : "false"} +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + metrics +
           "}}";
  }

  static std::vector<MetricDef> defs(bool trace) {
    if (trace) return {std::begin(kPerLayer), std::end(kPerLayer)};
    return {std::begin(kEndToEnd), std::end(kEndToEnd)};
  }

  static std::string format_number(double value) {
    if (!std::isfinite(value)) return "0";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    return buffer;
  }

 private:
  std::string workload_;
  std::map<std::string, double> values_;
  bool correct_ = true;
};

// ---- models ---------------------------------------------------------------

constexpr std::uint64_t kWeightSeed = 2025;  // weights are fixed; only the
                                             // requests come from --seed

// The d64 / 16-layer shape of PipelineConfig::standard(), set in code so the
// environment cannot change it. The context covers long_prompt's 128-token
// prompts plus their outputs.
nn::ModelConfig standard_model() {
  nn::ModelConfig config;
  config.vocab_size = data::Vocab::instance().size();
  config.d_model = 64;
  config.n_heads = 4;
  config.n_layers = 16;
  config.d_ff = 128;
  config.max_seq_len = 160;
  return config;
}

// ~21 MB of block weights: more than a core's private L2, less than L3.
nn::ModelConfig wide_model() {
  nn::ModelConfig config = standard_model();
  config.d_model = 256;
  config.n_layers = 8;
  config.d_ff = 512;
  return config;
}

struct Variant {
  std::string name;
  nn::TransformerLM model;
};

// ---- serving workloads ----------------------------------------------------

struct ServingWorkload {
  std::string name;
  sb::Traffic traffic;
  double rate_hz = 0.0;    // phase A arrival rate
  double limit_ms = 0.0;   // phase A latency limit for client.slo_attain
  std::int64_t clients = 0;  // phase B closed-loop clients
  bool wide = false;       // wide target + speculative draft
  bool cross_process = false;
};

std::optional<ServingWorkload> serving_workload(const std::string& name) {
  ServingWorkload w;
  w.name = name;
  w.traffic.vocab = data::Vocab::instance().size();
  w.traffic.variants = {"full", "p4"};
  w.rate_hz = 150.0;
  w.limit_ms = 50.0;
  w.clients = 16;
  if (name == "chat") return w;
  if (name == "replica_proc") {
    w.cross_process = true;
    return w;
  }
  if (name == "long_prompt") {
    w.traffic.prompt_min = 96;
    w.traffic.prompt_max = 128;
    w.traffic.shared_prefix = 64;
    w.traffic.out_min = 4;
    w.traffic.out_max = 8;
    // ~100 req/s saturate the two servers; a quarter of that keeps queueing
    // from amplifying host jitter into the latency median.
    w.rate_hz = 25.0;
    w.limit_ms = 100.0;
    return w;
  }
  if (name == "wide_spec") {
    w.wide = true;
    w.traffic.variants = {"target"};
    w.rate_hz = 10.0;
    w.limit_ms = 500.0;
    w.clients = 8;
    return w;
  }
  return std::nullopt;
}

// The variant family a workload hosts. Deterministic: the router's copies and
// the reference copies used for output checks are built separately and are
// bit-identical.
std::vector<Variant> build_variants(const ServingWorkload& w) {
  std::vector<Variant> variants;
  if (w.wide) {
    nn::TransformerLM target{wide_model(), kWeightSeed};
    // Zeroed output projections turn the middle blocks into identity maps on
    // the residual stream, so the draft that skips them predicts the target
    // exactly and acceptance sits at its ceiling.
    for (std::size_t i = 2; i < 6; ++i) {
      auto wo = target.block(i).attention().wo().weight().data();
      auto down = target.block(i).mlp().w_down().weight().data();
      std::fill(wo.begin(), wo.end(), 0.0F);
      std::fill(down.begin(), down.end(), 0.0F);
    }
    nn::TransformerLM draft = target.pruned(2, 4);
    variants.push_back({"target", std::move(target)});
    variants.push_back({"draft", std::move(draft)});
    return variants;
  }
  nn::TransformerLM full{standard_model(), kWeightSeed};
  nn::TransformerLM p4 = full.pruned(6, 4);
  variants.push_back({"full", std::move(full)});
  variants.push_back({"p4", std::move(p4)});
  return variants;
}

constexpr std::int64_t kMaxBatch = 8;
constexpr std::int64_t kQueueCapacity = 256;
constexpr std::int64_t kSpecK = 4;

serve::RouterConfig router_config(const ServingWorkload& w) {
  serve::RouterConfig config;
  config.server.max_batch = kMaxBatch;
  config.server.queue_capacity = kQueueCapacity;
  if (w.wide) {
    config.spec_draft = "draft";
    config.server.spec_k = kSpecK;
  }
  if (w.cross_process) {
    config.cross_process = true;
    // Workers build their server config from the environment.
    config.remote.env_overrides = {
        "SDD_SERVE_MAX_BATCH=" + std::to_string(kMaxBatch),
        "SDD_SERVE_QUEUE_CAP=" + std::to_string(kQueueCapacity),
        "SDD_LOG_LEVEL=warn"};
  }
  return config;
}

serve::RouteRequest route_request(const sb::GeneratedRequest& generated) {
  serve::RouteRequest route;
  route.request.prompt = generated.prompt;
  route.request.max_new_tokens = generated.max_new_tokens;
  route.request.temperature = generated.temperature;
  route.request.stop_token = -1;
  route.request.seed = generated.seed;
  route.variant = generated.variant;
  return route;
}

struct Deployment {
  std::unique_ptr<serve::VariantRouter> router;
  double spawn_s = 0.0;  // cross-process: router construction until every
                         // worker's HELLO
};

constexpr std::uint64_t kWarmupSeed = 77;
constexpr std::int64_t kWarmupTokens = 4;

// Model build, router start, worker spawn until HELLO, then one short
// request per decode slot of every variant, so lazy set-up (RoPE tables,
// first-touch KV pages) is finished before anything is timed. The warm-up
// is kept short: longer decode in set-up only adds host noise to setup_s.
Deployment deploy(const ServingWorkload& w, const fs::path& dir) {
  std::vector<serve::VariantSpec> specs;
  for (Variant& variant : build_variants(w)) {
    serve::VariantSpec spec;
    spec.name = variant.name;
    if (w.cross_process) {
      spec.path = (dir / (variant.name + ".bin")).string();
      variant.model.save(spec.path);
    } else {
      spec.model = std::move(variant.model);
    }
    specs.push_back(std::move(spec));
  }
  Deployment deployment;
  const Clock::time_point router_start = Clock::now();
  deployment.router =
      std::make_unique<serve::VariantRouter>(std::move(specs), router_config(w));
  if (w.cross_process) {
    // cost_hint is 0, so a non-zero cost means the worker's HELLO arrived.
    while (true) {
      bool ready = true;
      for (const serve::ReplicaSnapshot& snap : deployment.router->replicas()) {
        ready = ready && snap.cost > 0;
      }
      if (ready) break;
      if (seconds_since(router_start) > 60.0) {
        throw std::runtime_error("replica workers never sent HELLO");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    deployment.spawn_s = seconds_since(router_start);
  }
  sb::RequestStream warmup{w.traffic, kWarmupSeed, 9};
  std::vector<serve::RouteTicketPtr> tickets;
  for (const std::string& variant : w.traffic.variants) {
    for (std::int64_t i = 0; i < kMaxBatch; ++i) {
      sb::GeneratedRequest request = warmup.next();
      request.prompt.resize(kWarmupTokens);
      request.max_new_tokens = kWarmupTokens;
      request.variant = variant;
      tickets.push_back(deployment.router->submit(route_request(request)));
    }
  }
  for (const serve::RouteTicketPtr& ticket : tickets) {
    if (ticket->wait().response.state != serve::RequestState::kCompleted) {
      throw std::runtime_error("warm-up request did not complete");
    }
  }
  return deployment;
}

// One request as the load generator saw it. Times are tracer microseconds.
struct Sent {
  sb::GeneratedRequest request;
  std::int64_t id = 0;
  std::int64_t due_us = 0;
  std::int64_t sent_us = 0;
  std::int64_t submitted_us = 0;
  std::int64_t end_us = -1;  // -1 = never resolved
  serve::RouteTicketPtr ticket;
  serve::RouteResponse response;

  bool completed() const {
    return end_us >= 0 && response.response.state == serve::RequestState::kCompleted;
  }
  double latency_ms() const { return static_cast<double>(end_us - due_us) / 1000.0; }
};

constexpr std::int64_t kPollUs = 200;
constexpr std::int64_t kDrainLimitUs = 60'000'000;

// Single-threaded load generator: submits on schedule (open loop) or on
// completion (closed loop) and polls outstanding tickets every kPollUs.
class LoadGenerator {
 public:
  LoadGenerator(serve::VariantRouter& router, sb::Tracer& tracer, bool watch_heartbeats)
      : router_{router}, tracer_{tracer}, watch_heartbeats_{watch_heartbeats} {}

  // Phase A: every request is timed from its due time, so a stall also
  // delays (and is charged to) the requests scheduled behind it.
  std::vector<Sent> open_loop(std::vector<sb::GeneratedRequest> schedule) {
    std::vector<Sent> sent(schedule.size());
    const std::int64_t t0 = tracer_.now_us() + 1000;
    const std::int64_t give_up =
        t0 + (schedule.empty() ? 0 : schedule.back().send_us) + kDrainLimitUs;
    std::size_t next = 0;
    std::vector<std::size_t> outstanding;
    while (next < sent.size() || !outstanding.empty()) {
      std::int64_t now = tracer_.now_us();
      while (next < sent.size() && t0 + schedule[next].send_us <= now) {
        Sent& s = sent[next];
        s.due_us = t0 + schedule[next].send_us;
        s.request = std::move(schedule[next]);
        submit(s);
        outstanding.push_back(next);
        ++next;
        now = tracer_.now_us();
      }
      poll(sent, outstanding, now);
      if (now > give_up) {
        abandon(sent, outstanding);
        break;
      }
      std::int64_t wake = now + kPollUs;
      if (next < sent.size()) wake = std::min(wake, t0 + schedule[next].send_us);
      sleep_until(wake);
    }
    return sent;
  }

  // Phase B: `clients` requests in flight; each completion immediately sends
  // the client's next request until `seconds` have passed.
  std::vector<Sent> closed_loop(sb::RequestStream& stream, std::int64_t clients,
                                double seconds, std::int64_t* window_end_us) {
    std::vector<Sent> sent;
    const std::int64_t t0 = tracer_.now_us();
    const std::int64_t stop = t0 + static_cast<std::int64_t>(seconds * 1e6);
    *window_end_us = stop;
    std::vector<std::size_t> outstanding;
    const auto send_next = [&] {
      Sent s;
      s.request = stream.next();
      sent.push_back(std::move(s));
      submit(sent.back());
      sent.back().due_us = sent.back().sent_us;
      outstanding.push_back(sent.size() - 1);
    };
    for (std::int64_t c = 0; c < clients; ++c) send_next();
    while (!outstanding.empty()) {
      const std::int64_t now = tracer_.now_us();
      const std::size_t finished = poll(sent, outstanding, now);
      for (std::size_t i = 0; i < finished && now < stop; ++i) send_next();
      if (now - stop > kDrainLimitUs) {
        abandon(sent, outstanding);
        break;
      }
      sleep_until(now + kPollUs);
    }
    return sent;
  }

  std::int64_t heartbeat_age_ms_max() const { return heartbeat_age_ms_max_; }

 private:
  void submit(Sent& s) {
    s.id = next_id_++;
    s.sent_us = tracer_.now_us();
    s.ticket = router_.submit(route_request(s.request));
    s.submitted_us = tracer_.now_us();
  }

  // Resolves finished tickets; returns how many finished.
  std::size_t poll(std::vector<Sent>& sent, std::vector<std::size_t>& outstanding,
                   std::int64_t now) {
    std::size_t finished = 0;
    for (std::size_t i = 0; i < outstanding.size();) {
      Sent& s = sent[outstanding[i]];
      // state() is a plain locked read; wait_for(0ms) on a pending ticket
      // enters a timed futex wait and costs ~50 us of timer slack each.
      if (!serve::request_state_terminal(s.ticket->state())) {
        ++i;
        continue;
      }
      s.end_us = now;
      s.response = s.ticket->wait();
      s.ticket.reset();
      record_spans(s);
      outstanding[i] = outstanding.back();
      outstanding.pop_back();
      ++finished;
    }
    if (watch_heartbeats_ && now - last_watch_us_ >= 100'000) {
      last_watch_us_ = now;
      for (const serve::ReplicaSnapshot& snap : router_.replicas()) {
        heartbeat_age_ms_max_ = std::max(heartbeat_age_ms_max_, snap.heartbeat_age_ms);
      }
    }
    return finished;
  }

  void abandon(std::vector<Sent>& sent, std::vector<std::size_t>& outstanding) {
    for (const std::size_t index : outstanding) {
      sent[index].ticket->cancel();
      std::fprintf(stderr, "sdd_bench: request %lld never resolved\n",
                   static_cast<long long>(sent[index].id));
    }
    outstanding.clear();
  }

  // request > submit, plus queue and decode rebuilt from the Response's
  // millisecond fields (the router does not expose when they happened).
  void record_spans(const Sent& s) {
    if (!tracer_.enabled()) return;
    const std::int64_t root =
        tracer_.add({"request", s.due_us, s.end_us, -1, s.id, false});
    tracer_.add({"submit", s.sent_us, s.submitted_us, root, s.id, false});
    const std::int64_t queue_end = s.submitted_us + s.response.response.queue_ms * 1000;
    tracer_.add({"queue", s.submitted_us, queue_end, root, s.id, true});
    tracer_.add({"decode", queue_end, queue_end + s.response.response.decode_ms * 1000,
                 root, s.id, true});
  }

  void sleep_until(std::int64_t us) const {
    const std::int64_t wait = us - tracer_.now_us();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds{wait});
  }

  serve::VariantRouter& router_;
  sb::Tracer& tracer_;
  bool watch_heartbeats_;
  std::int64_t next_id_ = 0;
  std::int64_t last_watch_us_ = 0;
  std::int64_t heartbeat_age_ms_max_ = 0;
};

nn::TransformerLM& variant_model(std::vector<Variant>& variants, const std::string& name) {
  for (Variant& v : variants) {
    if (v.name == name) return v.model;
  }
  throw std::runtime_error("no variant named '" + name + "'");
}

constexpr std::size_t kCheckSample = 32;

// Recomputes a fixed sample of phase-A responses (the first half greedy, half
// sampled, in send order) with sequential nn::generate on the weights of the
// variant that served them. Returns the share that matched.
double check_outputs(const std::vector<Sent>& sent, std::vector<Variant>& refs,
                     Report& report) {
  std::size_t greedy = 0;
  std::size_t sampled = 0;
  std::size_t matched = 0;
  for (const Sent& s : sent) {
    if (!s.completed()) continue;
    std::size_t& taken = s.request.temperature > 0.0F ? sampled : greedy;
    if (taken >= kCheckSample / 2) continue;
    ++taken;
    nn::GenerateOptions options;
    options.max_new_tokens = s.request.max_new_tokens;
    options.temperature = s.request.temperature;
    options.stop_token = -1;
    options.seed = s.request.seed;
    const std::vector<std::int32_t> expected =
        nn::generate(variant_model(refs, s.response.variant), s.request.prompt, options);
    if (s.response.response.tokens == expected) {
      ++matched;
    } else {
      std::fprintf(stderr, "sdd_bench: request %lld on %s: %zu tokens differ from "
                   "sequential decode\n", static_cast<long long>(s.id),
                   s.response.variant.c_str(), s.response.response.tokens.size());
    }
  }
  const std::size_t checked = greedy + sampled;
  report.check(checked > 0, "no completed response to check");
  report.check(matched == checked, "served outputs differ from nn::generate");
  return checked == 0 ? 0.0 : static_cast<double>(matched) / static_cast<double>(checked);
}

// ---- nn replay (traced runs only) -----------------------------------------

constexpr std::size_t kReplayRequests = 8;
constexpr int kSampleReps = 64;  // sample_token calls per span: one is ~1 us

// Span self times grouped by name, over spans whose root span is `root`.
class SpanIndex {
 public:
  explicit SpanIndex(const sb::Tracer& tracer)
      : spans_{tracer.spans()}, self_{sb::self_times_us(spans_)} {}

  std::vector<double> self_us(const std::string& name,
                              const std::string& root = "") const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      if (!root.empty() && spans_[root_of(i)].name != root) continue;
      out.push_back(static_cast<double>(self_[i]));
    }
    return out;
  }

  std::vector<double> duration_us(const std::string& name,
                                  const std::string& root = "") const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      if (!root.empty() && spans_[root_of(i)].name != root) continue;
      out.push_back(static_cast<double>(spans_[i].end_us - spans_[i].start_us));
    }
    return out;
  }

  // Mean duration of spans whose name starts with `prefix` and ends with
  // `suffix` (e.g. block.<i>.attn).
  double mean_matching_us(const std::string& prefix, const std::string& suffix) const {
    std::vector<double> out;
    for (const sb::Span& span : spans_) {
      if (span.name.size() >= prefix.size() + suffix.size() &&
          span.name.compare(0, prefix.size(), prefix) == 0 &&
          span.name.compare(span.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        out.push_back(static_cast<double>(span.end_us - span.start_us));
      }
    }
    return mean(out);
  }

 private:
  std::size_t root_of(std::size_t i) const {
    while (spans_[i].parent >= 0) i = static_cast<std::size_t>(spans_[i].parent);
    return i;
  }

  const std::vector<sb::Span>& spans_;
  std::vector<std::int64_t> self_;
};

// Re-runs `request` alone through public nn calls on `model`:
// replay.<label> > prefill_step (one decode_step per prompt token, as the
// server prefills), decode_step per output token, sample_token; then
// decode_span over the whole prompt on a fresh state. Returns the sum of the
// context lengths the output-token decode_steps ran at.
double replay_request(sb::Tracer& tracer, const nn::TransformerLM& model,
                      const std::string& label, const sb::GeneratedRequest& request,
                      std::int64_t id) {
  const sb::Scope root{tracer, "replay." + label, -1, id};
  Rng rng{request.seed};
  nn::TransformerLM::DecodeState state = model.make_decode_state();
  std::vector<float> logits;
  double context_sum = 0.0;
  for (const std::int32_t token : request.prompt) {
    const sb::Scope step{tracer, "prefill_step", root.id(), id};
    logits = model.decode_step(state, token);
  }
  for (std::int64_t t = 0; t < request.max_new_tokens; ++t) {
    std::int32_t next = 0;
    {
      const sb::Scope sample{tracer, "sample_token", root.id(), id};
      for (int r = 0; r < kSampleReps; ++r) {
        Rng copy = rng;
        next = nn::sample_token(logits, request.temperature, copy);
      }
    }
    nn::sample_token(logits, request.temperature, rng);
    context_sum += static_cast<double>(state.position);
    const sb::Scope step{tracer, "decode_step", root.id(), id};
    logits = model.decode_step(state, next);
  }
  nn::TransformerLM::DecodeState fresh = model.make_decode_state();
  {
    const sb::Scope span{tracer, "decode_span", root.id(), id};
    model.decode_span(fresh, request.prompt);
  }
  return context_sum;
}

// The same token sequence through each block's attention and FFN step on a
// shadow state: replay.shadow > shadow_step > block.<i>.attn / block.<i>.ffn.
void replay_shadow(sb::Tracer& tracer, nn::TransformerLM& model,
                   const sb::GeneratedRequest& request, std::int64_t id) {
  const sb::Scope root{tracer, "replay.shadow", -1, id};
  const std::int64_t channels = model.config().d_model;
  const float eps = model.config().rmsnorm_eps;
  nn::TransformerLM::DecodeState state = model.make_decode_state();
  std::vector<float> x(static_cast<std::size_t>(channels));
  std::vector<float> normed(x.size());
  std::vector<float> delta(x.size());
  std::vector<std::int32_t> tokens = request.prompt;
  Rng rng{request.seed};
  while (static_cast<std::int64_t>(tokens.size()) <
         static_cast<std::int64_t>(request.prompt.size()) + request.max_new_tokens) {
    tokens.push_back(static_cast<std::int32_t>(
        rng.uniform_int(0, model.config().vocab_size - 1)));
  }
  for (std::size_t pos = 0; pos < tokens.size(); ++pos) {
    const sb::Scope step{tracer, "shadow_step", root.id(), id};
    const float* row = model.token_embedding().data().data() + tokens[pos] * channels;
    std::copy(row, row + channels, x.begin());
    for (std::size_t b = 0; b < static_cast<std::size_t>(model.n_layers()); ++b) {
      nn::TransformerBlock& block = model.block(b);
      const std::string prefix = "block." + std::to_string(b);
      block.norm1().apply(x.data(), normed.data(), 1, eps);
      {
        const sb::Scope attn{tracer, prefix + ".attn", step.id(), id};
        block.attention().step(normed.data(), delta.data(), state.caches[b],
                               static_cast<std::int64_t>(pos));
      }
      kernels::axpy(1.0F, delta.data(), x.data(), channels, true);
      block.norm2().apply(x.data(), normed.data(), 1, eps);
      {
        const sb::Scope ffn{tracer, prefix + ".ffn", step.id(), id};
        block.mlp().step(normed.data(), delta.data());
      }
      kernels::axpy(1.0F, delta.data(), x.data(), channels, true);
    }
  }
}

// Speculative layer pieces on the replayed sequences: draft decode_step per
// token and target decode_span over k+1-token verify windows.
void replay_spec(sb::Tracer& tracer, const nn::TransformerLM& target,
                 const nn::TransformerLM& draft, const sb::GeneratedRequest& request,
                 std::int64_t id) {
  const sb::Scope root{tracer, "replay.spec", -1, id};
  nn::TransformerLM::DecodeState draft_state = draft.make_decode_state();
  nn::TransformerLM::DecodeState target_state = target.make_decode_state();
  const std::vector<std::int32_t>& prompt = request.prompt;
  for (const std::int32_t token : prompt) {
    const sb::Scope step{tracer, "spec.draft_step", root.id(), id};
    draft.decode_step(draft_state, token);
  }
  const std::size_t window = static_cast<std::size_t>(kSpecK) + 1;
  for (std::size_t at = 0; at + window <= prompt.size(); at += window) {
    const sb::Scope verify{tracer, "spec.verify", root.id(), id};
    target.decode_span(target_state,
                       std::span<const std::int32_t>{prompt.data() + at, window});
  }
}

void replay_nn(sb::Tracer& tracer, std::vector<Variant>& refs, const std::string& full,
               const std::string& pruned, const std::vector<sb::GeneratedRequest>& sample,
               bool spec, Report& report) {
  nn::TransformerLM& full_model = variant_model(refs, full);
  const nn::TransformerLM& pruned_model = variant_model(refs, pruned);
  double context_sum = 0.0;
  std::int64_t steps = 0;
  std::int64_t prompt_tokens = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    context_sum += replay_request(tracer, full_model, "full", sample[i], id);
    replay_request(tracer, pruned_model, "pruned", sample[i], id);
    steps += sample[i].max_new_tokens;
    replay_shadow(tracer, full_model, sample[i], id);
    if (spec) replay_spec(tracer, full_model, pruned_model, sample[i], id);
    prompt_tokens += static_cast<std::int64_t>(sample[i].prompt.size());
  }
  const SpanIndex index{tracer};
  const double full_us = mean(index.duration_us("decode_step", "replay.full"));
  const double pruned_us = mean(index.duration_us("decode_step", "replay.pruned"));
  report.set("nn.decode_step_us.full", full_us);
  report.set("nn.decode_step_us.pruned", pruned_us);
  report.set("nn.pruned_saving_realized", full_us > 0 ? 1.0 - pruned_us / full_us : 0.0);
  const auto context = static_cast<std::int64_t>(
      std::llround(context_sum / static_cast<double>(std::max<std::int64_t>(steps, 1))));
  report.set("nn.pruned_saving_analytic",
             eval::flop_savings(full_model.config(), pruned_model.config(), context));
  report.set("nn.prefill_step_us_per_tok",
             mean(index.duration_us("prefill_step", "replay.full")));
  double span_us = 0.0;
  for (const double us : index.duration_us("decode_span", "replay.full")) span_us += us;
  report.set("nn.prefill_span_us_per_tok",
             prompt_tokens > 0 ? span_us / static_cast<double>(prompt_tokens) : 0.0);
  const double attn_us = index.mean_matching_us("block.", ".attn");
  const double ffn_us = index.mean_matching_us("block.", ".ffn");
  report.set("nn.attn_us", attn_us);
  report.set("nn.ffn_us", ffn_us);
  // Embedding lookup, final norm, LM head and per-step glue: whatever the
  // blocks' attention and FFN do not account for.
  report.set("nn.head_us", std::max(0.0, full_us - static_cast<double>(
                                                  full_model.n_layers()) *
                                                  (attn_us + ffn_us)));
  std::vector<double> greedy;
  std::vector<double> sampled;
  const std::vector<double> sample_us = index.duration_us("sample_token", "replay.full");
  std::size_t k = 0;
  for (const sb::GeneratedRequest& request : sample) {
    for (std::int64_t t = 0; t < request.max_new_tokens && k < sample_us.size(); ++t) {
      (request.temperature > 0.0F ? sampled : greedy)
          .push_back(sample_us[k++] / kSampleReps);
    }
  }
  report.set("nn.sample_us.greedy", mean(greedy));
  report.set("nn.sample_us.t08", mean(sampled));
  report.set("nn.gflops",
             full_us > 0 ? static_cast<double>(eval::flops_per_token(
                               full_model.config(), context)) / (full_us * 1e3)
                         : 0.0);
  report.set("nn.weight_mb_per_token",
             static_cast<double>(full_model.param_count()) * sizeof(float) / 1e6);
  if (spec) {
    report.set("spec.verify_us", mean(index.duration_us("spec.verify")));
    report.set("spec.draft_step_us", mean(index.duration_us("spec.draft_step")));
  }
}

// Reports the span count and trace.overhead_frac (the per-span recording cost
// times the spans recorded, over the traced wall time), then writes the spans.
void finish_trace(const sb::Tracer& tracer, double traced_s, const Options& opt,
                  Report& report) {
  sb::Tracer probe{true};
  constexpr int kProbeSpans = 20000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kProbeSpans; ++i) {
    const sb::Scope scope{probe, "probe", -1, i};
  }
  const double per_span_s = seconds_since(start) / kProbeSpans;
  const auto spans = static_cast<double>(tracer.spans().size());
  report.set("trace.spans", spans);
  report.set("trace.overhead_frac", traced_s > 0 ? per_span_s * spans / traced_s : 0.0);
  if (!opt.spans_path.empty() && !tracer.write_jsonl(opt.spans_path)) {
    std::fprintf(stderr, "sdd_bench: cannot write %s\n", opt.spans_path.c_str());
  }
}

// ---- serving run ----------------------------------------------------------

constexpr int kSetupRuns = 5;

void run_serving(const ServingWorkload& w, const Options& opt, const fs::path& dir,
                 Report& report) {
  std::vector<Variant> refs = build_variants(w);

  std::vector<double> setups;
  Deployment deployment;
  for (int i = 0; i < kSetupRuns; ++i) {
    deployment = {};  // the previous router shuts down before the next starts
    const Clock::time_point start = Clock::now();
    deployment = deploy(w, dir);
    setups.push_back(seconds_since(start));
  }
  serve::VariantRouter& router = *deployment.router;
  report.set("setup_s", median(setups));
  report.set("remote.spawn_s", deployment.spawn_s);

  sb::Tracer tracer{opt.trace};
  const Clock::time_point traced_start = Clock::now();
  LoadGenerator generator{router, tracer, opt.trace && w.cross_process};

  const double phase_a_s = opt.seconds * 0.6;
  const double phase_b_s = opt.seconds * 0.4;
  std::vector<sb::GeneratedRequest> schedule =
      sb::open_loop_schedule(w.traffic, opt.seed, w.rate_hz, phase_a_s);
  const std::vector<sb::GeneratedRequest> replay_sample(
      schedule.begin(),
      schedule.begin() + static_cast<std::ptrdiff_t>(
                             std::min(kReplayRequests, schedule.size())));
  const std::vector<Sent> phase_a = generator.open_loop(std::move(schedule));

  sb::RequestStream closed{w.traffic, opt.seed, 3};
  std::int64_t window_end_us = 0;
  const std::vector<Sent> phase_b =
      generator.closed_loop(closed, w.clients, phase_b_s, &window_end_us);

  const serve::RouterStats router_stats = router.stats();
  const std::vector<serve::ReplicaSnapshot> replicas = router.replicas();
  router.shutdown();

  std::vector<double> latencies;
  std::vector<sb::Outcome> outcomes;
  std::vector<double> lags;
  for (const Sent& s : phase_a) {
    outcomes.push_back({s.completed(), s.completed() ? s.latency_ms() : 0.0});
    lags.push_back(static_cast<double>(s.sent_us - s.due_us) / 1000.0);
    if (s.completed()) latencies.push_back(s.latency_ms());
  }
  std::int64_t window_tokens = 0;
  std::int64_t completed_b = 0;
  for (const Sent& s : phase_b) {
    if (!s.completed()) continue;
    ++completed_b;
    if (s.end_us <= window_end_us) {
      window_tokens += static_cast<std::int64_t>(s.response.response.tokens.size());
    }
  }
  report.set("tokens_per_s", static_cast<double>(window_tokens) / phase_b_s);

  report.attempted = static_cast<std::int64_t>(phase_a.size() + phase_b.size());
  report.failed = report.attempted - static_cast<std::int64_t>(latencies.size()) -
                  completed_b;
  report.check(!phase_a.empty() && !phase_b.empty(), "a phase sent no requests");
  report.check(router_stats.resolved() == router_stats.submitted,
               "router stats do not balance");
  const double match = check_outputs(phase_a, refs, report);
  const std::optional<double> tail = sb::supported_percentile(latencies.size());
  std::fprintf(stderr,
               "sdd_bench: %s phase A %zu sent (tail p%.4g supported), phase B %zu "
               "sent\n", w.name.c_str(), phase_a.size(), tail.value_or(0.0),
               phase_b.size());

  // ---- per layer (meaningful from the traced run)
  report.set("client.latency_p50_ms", sb::percentile(latencies, 50.0));
  report.set("client.latency_p90_ms", sb::percentile(latencies, 90.0));
  report.set("client.latency_p99_ms", sb::percentile(latencies, 99.0));
  report.set("client.lag_p99_ms", sb::percentile(lags, 99.0));
  report.set("client.slo_attain", sb::slo_attain(outcomes, w.limit_ms));
  report.set("client.sent_a", static_cast<double>(phase_a.size()));
  report.set("client.completed_a", static_cast<double>(latencies.size()));
  report.set("client.sent_b", static_cast<double>(phase_b.size()));
  report.set("client.completed_b", static_cast<double>(completed_b));
  report.set("client.output_match", match);
  report.set("client.error_rate", report.attempted > 0
                                      ? static_cast<double>(report.failed) /
                                            static_cast<double>(report.attempted)
                                      : 0.0);
  report.set("router.failovers", static_cast<double>(router_stats.failovers));
  report.set("router.exhausted", static_cast<double>(router_stats.exhausted));
  serve::ServerStats server;
  nn::SpecCounters spec;
  std::int64_t restarts = 0;
  for (const serve::ReplicaSnapshot& snap : replicas) {
    server.peak_active = std::max(server.peak_active, snap.server.peak_active);
    server.shed += snap.server.shed;
    server.rejected += snap.server.rejected;
    server.timed_out += snap.server.timed_out;
    server.degraded += snap.server.degraded;
    server.worker_recycles += snap.server.worker_recycles;
    spec.add(snap.server.spec);
    restarts += snap.restarts;
  }
  report.set("serve.peak_active", static_cast<double>(server.peak_active));
  report.set("serve.shed", static_cast<double>(server.shed));
  report.set("serve.rejected", static_cast<double>(server.rejected));
  report.set("serve.timed_out", static_cast<double>(server.timed_out));
  report.set("serve.degraded", static_cast<double>(server.degraded));
  report.set("serve.worker_recycles", static_cast<double>(server.worker_recycles));
  report.set("spec.acceptance", spec.acceptance_rate());
  report.set("spec.tokens_per_round",
             spec.rounds > 0 ? static_cast<double>(spec.emitted()) /
                                   static_cast<double>(spec.rounds)
                             : 0.0);
  report.set("remote.restarts", static_cast<double>(restarts));
  report.set("remote.heartbeat_age_ms_max",
             static_cast<double>(generator.heartbeat_age_ms_max()));
  if (w.wide) {
    report.check(spec.proposed > 0, "speculative decode never ran");
  }
  if (!opt.trace) return;

  {
    const SpanIndex index{tracer};
    const std::vector<double> overhead_us = index.self_us("request");
    report.set("router.overhead_p50_ms", sb::percentile(overhead_us, 50.0) / 1000.0);
    if (w.cross_process) {
      report.set("remote.overhead_p50_ms", sb::percentile(overhead_us, 50.0) / 1000.0);
    }
    report.set("router.submit_us_p50", sb::percentile(index.duration_us("submit"), 50.0));
    const std::vector<double> queue_us = index.duration_us("queue");
    report.set("serve.queue_ms_p50", sb::percentile(queue_us, 50.0) / 1000.0);
    report.set("serve.queue_ms_p99", sb::percentile(queue_us, 99.0) / 1000.0);
  }
  std::vector<double> round_ms;
  for (const std::vector<Sent>* phase : {&phase_a, &phase_b}) {
    for (const Sent& s : *phase) {
      if (!s.completed()) continue;
      const auto tokens = static_cast<double>(s.request.prompt.size() +
                                              s.response.response.tokens.size());
      round_ms.push_back(static_cast<double>(s.response.response.decode_ms) / tokens);
    }
  }
  report.set("serve.round_ms_p50", sb::percentile(round_ms, 50.0));

  const std::string full = w.wide ? "target" : "full";
  const std::string pruned = w.wide ? "draft" : "p4";
  replay_nn(tracer, refs, full, pruned, replay_sample, w.wide, report);
  finish_trace(tracer, seconds_since(traced_start), opt, report);
}

// ---- SDD pipeline ----------------------------------------------------------

constexpr std::int64_t kPruneBlock = 4;
const char* const kDistillDataset = "gsm8k";

struct PipelineScale {
  nn::ModelConfig model;
  std::int64_t corpus_docs;
  std::int64_t pretrain_steps, pretrain_batch, pretrain_seq;
  std::int64_t sft_epochs, sft_max_steps, sft_batch;
  std::int64_t distill_tokens, dataset_size, eval_items;
};

PipelineScale pipeline_scale(bool smoke) {
  if (smoke) {  // ~1 s: enough layers to prune a 4-block span
    nn::ModelConfig model = standard_model();
    model.d_model = 32;
    model.n_heads = 2;
    model.n_layers = 6;
    model.d_ff = 64;
    model.max_seq_len = 64;
    return {model, 400, 40, 2, 48, 4, 20, 2, 8, 6, 4};
  }
  // The d64 / 16-layer model with the shapes of a full-size run (batch 8 x
  // seq 64 training steps, 48-token distillation) but few enough steps and
  // items that one cold pass takes ~3 s and a run holds several.
  return {standard_model(), 2000, 12, 8, 64, 2, 10, 8, 48, 48, 12};
}

// Every field is set here: the pipeline ignores SDD_* overrides.
core::PipelineConfig pipeline_config(const PipelineScale& scale, std::uint64_t seed,
                                     const fs::path& cache) {
  // The world and corpus keep their default seeds, so set-up does the same
  // work on every run; --seed picks the fine-tuning data, the initial
  // weights and the batch order.
  core::PipelineConfig config;
  config.model = scale.model;
  config.corpus.n_documents = scale.corpus_docs;
  config.base_seed = seed;
  config.dataset_seed = seed + 1000;
  config.pretrain.seed = seed;
  config.sft.seed = seed;
  config.pretrain.steps = scale.pretrain_steps;
  config.pretrain.batch_size = scale.pretrain_batch;
  config.pretrain.seq_len = scale.pretrain_seq;
  config.pretrain.optimizer.lr = 3e-3F;
  config.pretrain.log_every = 0;
  config.sft.epochs = scale.sft_epochs;
  config.sft.max_steps = scale.sft_max_steps;
  config.sft.batch_size = scale.sft_batch;
  config.sft.optimizer.lr = 1e-3F;
  config.lora.rank = 8;
  config.lora.alpha = 16.0F;
  config.distill.max_new_tokens = scale.distill_tokens;
  config.supervise.retry_max = 0;  // a failure must surface, not be retried
  config.cache_dir = cache;
  return config;
}

std::int64_t directory_bytes(const fs::path& dir) {
  std::int64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += static_cast<std::int64_t>(entry.file_size());
  }
  return total;
}

struct PipelineRun {
  double total_s = 0.0;
  double quality = 0.0;
  std::uint64_t weights = 0;
  double accept_rate = 0.0;
  std::int64_t cache_bytes = 0;
  nn::TransformerLM base;
  nn::TransformerLM pruned;
};

// One cold-cache pass: pipeline.run > pipeline.<stage>, pipeline.eval >
// eval.task.<task>.
PipelineRun run_pipeline_once(const core::PipelineConfig& config, const PipelineScale& scale,
                              sb::Tracer& tracer, std::int64_t rep) {
  core::Pipeline pipeline{config};
  PipelineRun run;
  const Clock::time_point start = Clock::now();
  const sb::Scope root{tracer, "pipeline.run", -1, rep};
  {
    const sb::Scope stage{tracer, "pipeline.pretrain", root.id(), rep};
    pipeline.base_model();
  }
  {
    const sb::Scope stage{tracer, "pipeline.prune", root.id(), rep};
    pipeline.prune(kPruneBlock);
  }
  core::DistillStats stats;
  {
    const sb::Scope stage{tracer, "pipeline.distill", root.id(), rep};
    pipeline.distilled_dataset(kDistillDataset, scale.dataset_size, &stats);
  }
  nn::TransformerLM recovered;
  {
    const sb::Scope stage{tracer, "pipeline.recover", root.id(), rep};
    recovered = pipeline.recovered(kPruneBlock, core::FtMethod::kSelfDataDistill,
                                   kDistillDataset, scale.dataset_size);
  }
  {
    const sb::Scope stage{tracer, "pipeline.eval", root.id(), rep};
    eval::SuiteSpec spec;
    spec.mc_items = scale.eval_items;
    spec.gen_items = scale.eval_items;
    double total = 0.0;
    for (const std::string& task : eval::openllm_v1_tasks()) {
      const sb::Scope span{tracer, "eval.task." + task, stage.id(), rep};
      total += eval::evaluate_named_task(recovered, pipeline.world(), task, spec).accuracy;
    }
    run.quality = total / static_cast<double>(eval::openllm_v1_tasks().size());
  }
  run.total_s = seconds_since(start);
  run.weights = recovered.weight_hash();
  run.accept_rate = stats.acceptance_rate();
  run.cache_bytes = directory_bytes(config.cache_dir);
  run.base = pipeline.base_model().clone();
  run.pruned = std::move(recovered);
  return run;
}

constexpr int kPipelineSetups = 9;

void run_pipeline(const Options& opt, const fs::path& dir, Report& report) {
  const PipelineScale scale = pipeline_scale(opt.smoke);
  std::int64_t fresh = 0;
  const auto fresh_config = [&] {
    const fs::path cache = dir / ("cache" + std::to_string(fresh++));
    fs::create_directories(cache);
    return pipeline_config(scale, opt.seed, cache);
  };

  // Set-up is input preparation: the constructor (world, cache directory),
  // the pretraining corpus stream and the calibration set. The pretrain
  // stage builds its stream again internally; the constructor alone takes
  // ~0.1 ms, too little to time steadily.
  std::vector<double> setups;
  for (int i = 0; i < kPipelineSetups; ++i) {
    const core::PipelineConfig config = fresh_config();
    const Clock::time_point start = Clock::now();
    core::Pipeline pipeline{config};
    const std::vector<data::TokenId> stream =
        data::build_pretraining_stream(pipeline.world(), config.corpus);
    pipeline.calibration();
    setups.push_back(seconds_since(start));
    report.check(!stream.empty(), "empty pretraining stream");
  }
  report.set("setup_s", median(setups));

  sb::Tracer tracer{opt.trace};
  const Clock::time_point measure_start = Clock::now();
  std::vector<PipelineRun> runs;
  while (runs.empty() || seconds_since(measure_start) < opt.seconds) {
    ++report.attempted;
    try {
      runs.push_back(run_pipeline_once(fresh_config(), scale, tracer,
                                       static_cast<std::int64_t>(runs.size())));
    } catch (const std::exception& e) {
      ++report.failed;
      report.check(false, std::string{"pipeline run threw: "} + e.what());
      break;
    }
  }
  if (runs.empty()) return;

  std::vector<double> totals;
  for (const PipelineRun& run : runs) {
    totals.push_back(run.total_s);
    report.check(run.quality == runs[0].quality,
                 "quality_avg differs between repetitions");
    report.check(run.weights == runs[0].weights,
                 "recovered weights differ between repetitions");
  }
  report.check(runs[0].quality > 0.0 && runs[0].quality <= 1.0,
               "quality_avg outside (0, 1]");
  const double pipeline_s = median(totals);
  const double pretrain_tokens = static_cast<double>(
      scale.pretrain_steps * scale.pretrain_batch * scale.pretrain_seq);
  report.set("tokens_per_s", pretrain_tokens / pipeline_s);
  report.set("pipeline.pass_s", pipeline_s);
  report.set("pipeline.quality_avg", runs[0].quality);
  report.set("distill.accept_rate", runs[0].accept_rate);
  report.set("cache.bytes", static_cast<double>(runs[0].cache_bytes));
  std::fprintf(stderr, "sdd_bench: sdd_pipeline %zu repetition(s), quality %.6f\n",
               runs.size(), runs[0].quality);
  if (!opt.trace) return;

  const double traced_s = seconds_since(measure_start);
  {
    const SpanIndex index{tracer};
    for (const char* stage : {"pretrain", "prune", "distill", "recover", "eval"}) {
      report.set(std::string{"pipeline."} + stage + "_s",
                 mean(index.duration_us(std::string{"pipeline."} + stage)) / 1e6);
    }
    report.set("train.pretrain_tok_per_s",
               pretrain_tokens / (report.get("pipeline.pretrain_s") + 1e-12));
    for (const std::string& task : eval::openllm_v1_tasks()) {
      report.set("eval.task_s." + task, mean(index.duration_us("eval.task." + task)) / 1e6);
    }
  }
  // Layer costs of the models this pipeline produced, on chat-shaped requests.
  std::vector<Variant> models;
  models.push_back({"full", std::move(runs[0].base)});
  models.push_back({"p4", std::move(runs[0].pruned)});
  sb::Traffic traffic = serving_workload("chat")->traffic;
  traffic.vocab = models[0].model.config().vocab_size;
  sb::RequestStream stream{traffic, opt.seed, 4};
  std::vector<sb::GeneratedRequest> sample;
  for (std::size_t i = 0; i < kReplayRequests; ++i) {
    sb::GeneratedRequest request = stream.next();
    const auto room = models[0].model.config().max_seq_len -
                      static_cast<std::int64_t>(request.prompt.size());
    request.max_new_tokens = std::min(request.max_new_tokens, room);
    sample.push_back(std::move(request));
  }
  replay_nn(tracer, models, "full", "p4", sample, false, report);
  finish_trace(tracer, traced_s, opt, report);
}

// ---- host context ----------------------------------------------------------

struct Host {
  std::int64_t threads = 0;
  const char* isa = "portable";
  double load1 = -1.0;
  bool noisy = false;
};

Host host_context() {
  Host host;
  host.threads = static_cast<std::int64_t>(ThreadPool::global().worker_count()) + 1;
#if defined(__AVX512F__)
  host.isa = "avx512";
#elif defined(__AVX2__)
  host.isa = "avx2";
#endif
  double load[1] = {-1.0};
  if (getloadavg(load, 1) == 1) host.load1 = load[0];
  host.noisy = host.load1 > 1.0;
  return host;
}

std::string host_json(const Host& host) {
  return "{\"threads\": " + std::to_string(host.threads) + ", \"isa\": \"" + host.isa +
         "\", \"load1\": " + Report::format_number(host.load1) +
         ", \"noisy\": " + (host.noisy ? "1" : "0") + "}";
}

// ---- command line ----------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"chat", "long_prompt", "wide_spec",
                                              "replica_proc", "sdd_pipeline"};
  return names;
}

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "sdd_bench: %s\nusage: sdd_bench --workload <name|all> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--json <file>] [--spans <file>] "
               "[--workdir <dir>] [--smoke]\n",
               problem.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
        seconds_given = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--json") {
        opt.json_path = value;
      } else if (key == "--spans") {
        opt.spans_path = value;
      } else if (key == "--workdir") {
        opt.workdir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.workload != "all" &&
      std::find(workload_names().begin(), workload_names().end(), opt.workload) ==
          workload_names().end()) {
    usage("unknown workload " + opt.workload);
  }
  if (!seconds_given && opt.smoke) opt.seconds = 2.0;
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

// `sdd_bench replica-worker --model M --name N --fd F --heartbeat H`: the
// argv contract RemoteReplica uses when it re-execs this binary.
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

Report run_workload(const std::string& name, const Options& opt) {
  Report report{name};
  const fs::path dir =
      fs::absolute(opt.workdir) / (name + "-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  try {
    if (const std::optional<ServingWorkload> w = serving_workload(name)) {
      run_serving(*w, opt, dir, report);
    } else {
      run_pipeline(opt, dir, report);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string{"aborted: "} + e.what());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string{argv[1]} == "replica-worker") {
    return run_worker(argc, argv);
  }
  const Options opt = parse_options(argc, argv);
  set_log_level(LogLevel::kWarn);
  signals::ignore_sigpipe();

  const Host host = host_context();
  std::printf("host threads %lld isa %s load1 %.2f noisy %d\n",
              static_cast<long long>(host.threads), host.isa, host.load1,
              host.noisy ? 1 : 0);

  const std::vector<std::string> names =
      opt.workload == "all" ? workload_names() : std::vector<std::string>{opt.workload};
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string runs_json;
  std::string last_line;
  for (const std::string& name : names) {
    Options run_opt = opt;
    if (names.size() > 1 && !opt.spans_path.empty()) {
      // spans.jsonl -> spans.<workload>.jsonl, one file per workload.
      fs::path path = opt.spans_path;
      const std::string extension = path.extension().string();
      path.replace_extension();
      run_opt.spans_path = path.string() + "." + name + extension;
    }
    const Report report = run_workload(name, run_opt);
    last_line = report.print(opt.trace);
    correct = correct && report.correct();
    attempted += report.attempted;
    failed += report.failed;
    if (!runs_json.empty()) runs_json += ",\n  ";
    runs_json += "{\"workload\": \"" + name + "\", \"seed\": " + std::to_string(opt.seed) +
                 ", \"trace\": " + (opt.trace ? "1" : "0") + ", \"result\": " + last_line +
                 "}";
    std::fflush(stdout);
  }
  if (!opt.json_path.empty()) {
    std::FILE* out = std::fopen(opt.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "sdd_bench: cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\"host\": %s,\n \"runs\": [\n  %s\n]}\n", host_json(host).c_str(),
                 runs_json.c_str());
    std::fclose(out);
  }
  if (names.size() == 1) {
    std::printf("%s\n", last_line.c_str());
  } else {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {}}\n",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
  }
  return correct ? 0 : 1;
}
