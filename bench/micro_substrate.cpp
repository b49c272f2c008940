// M1: substrate microbenchmarks (google-benchmark).
//
// Measures the raw kernels and model phases that determine the wall-clock of
// every experiment bench: GEMM, fused attention, full forward/backward
// training steps, KV-cache decode throughput, and the pruning metric.
#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <array>
#include <chrono>
#include <memory>
#include <thread>

#include "core/prune.hpp"
#include "data/corpus.hpp"
#include "nn/decode.hpp"
#include "nn/speculative.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace sdd;

nn::ModelConfig bench_config() {
  nn::ModelConfig config;
  config.vocab_size = data::Vocab::instance().size();
  config.d_model = 64;
  config.n_heads = 4;
  config.n_layers = 16;
  config.d_ff = 128;
  config.max_seq_len = 160;
  return config;
}

void BM_GemmNt(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng{1};
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& x : a) x = rng.gaussian_float(0, 1);
  for (auto& x : b) x = rng.gaussian_float(0, 1);
  for (auto _ : state) {
    kernels::gemm_nt(a.data(), b.data(), c.data(), n, n, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNt)->Arg(64)->Arg(128)->Arg(256);

// The decode projection kernel on its own: `rows` activation rows against an
// [n, k] weight, every output bitwise dot(). Shapes are the served ones: k 64
// with n 64 (attention), 128 (FFN up) and 320 (about the 316-row LM head),
// and the wide_spec target's d256 projections.
void BM_GemmNtRowwise(benchmark::State& state) {
  const auto k = state.range(0);
  const auto n = state.range(1);
  const auto rows = state.range(2);
  Rng rng{1};
  std::vector<float> a(static_cast<std::size_t>(rows * k));
  std::vector<float> b(static_cast<std::size_t>(n * k));
  std::vector<float> c(static_cast<std::size_t>(rows * n));
  for (auto& x : a) x = rng.gaussian_float(0, 1);
  for (auto& x : b) x = rng.gaussian_float(0, 1);
  for (auto _ : state) {
    kernels::gemm_nt_rowwise(a.data(), b.data(), c.data(), rows, k, n, false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * k * n);
}
BENCHMARK(BM_GemmNtRowwise)
    ->ArgNames({"k", "n", "rows"})
    ->Args({64, 64, 8})
    ->Args({64, 128, 8})
    ->Args({64, 320, 8})
    ->Args({256, 256, 8})
    ->Args({256, 512, 8})
    ->Args({64, 320, 1})
    ->Args({256, 256, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_GemmNn(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng{1};
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& x : a) x = rng.gaussian_float(0, 1);
  for (auto& x : b) x = rng.gaussian_float(0, 1);
  for (auto _ : state) {
    kernels::gemm_nn(a.data(), b.data(), c.data(), n, n, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNn)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTn(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng{1};
  std::vector<float> a(static_cast<std::size_t>(n * n));
  std::vector<float> b(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto& x : a) x = rng.gaussian_float(0, 1);
  for (auto& x : b) x = rng.gaussian_float(0, 1);
  for (auto _ : state) {
    kernels::gemm_tn(a.data(), b.data(), c.data(), n, n, n, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmTn)->Arg(64)->Arg(128)->Arg(256);

void BM_AttentionForward(benchmark::State& state) {
  const std::int64_t batch = 8, seq = state.range(0), channels = 64;
  Rng rng{2};
  NoGradGuard no_grad;
  Tensor q = Tensor::randn(rng, {batch, seq, channels}, 1.0F);
  Tensor k = Tensor::randn(rng, {batch, seq, channels}, 1.0F);
  Tensor v = Tensor::randn(rng, {batch, seq, channels}, 1.0F);
  for (auto _ : state) {
    Tensor out = ops::causal_self_attention(q, k, v, 4, 10000.0F);
    benchmark::DoNotOptimize(out.data().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * seq);
}
BENCHMARK(BM_AttentionForward)->Arg(32)->Arg(80);

void BM_ModelForward(benchmark::State& state) {
  const nn::TransformerLM model{bench_config(), 1};
  const std::int64_t batch = 8, seq = state.range(0);
  Rng rng{3};
  std::vector<std::int32_t> ids(static_cast<std::size_t>(batch * seq));
  for (auto& id : ids) {
    id = static_cast<std::int32_t>(rng.uniform_int(0, model.config().vocab_size - 1));
  }
  NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor logits = model.forward(ids, batch, seq);
    benchmark::DoNotOptimize(logits.data().data());
  }
  state.SetItemsProcessed(state.iterations() * batch * seq);
}
BENCHMARK(BM_ModelForward)->Arg(48)->Arg(80)->UseRealTime();

void BM_TrainStep(benchmark::State& state) {
  nn::TransformerLM model{bench_config(), 1};
  const std::int64_t batch = 8, seq = state.range(0);
  Rng rng{4};
  std::vector<std::int32_t> ids(static_cast<std::size_t>(batch * seq));
  std::vector<std::int32_t> targets(ids.size());
  std::vector<float> weights(ids.size(), 1.0F);
  for (auto& id : ids) {
    id = static_cast<std::int32_t>(rng.uniform_int(0, model.config().vocab_size - 1));
  }
  for (auto& t : targets) {
    t = static_cast<std::int32_t>(rng.uniform_int(0, model.config().vocab_size - 1));
  }
  train::AdamW optimizer{model.trainable_parameters(), {}};
  for (auto _ : state) {
    Tensor logits = model.forward(ids, batch, seq);
    Tensor loss = ops::cross_entropy(logits, targets, weights);
    optimizer.zero_grad();
    loss.backward();
    optimizer.clip_gradients(1.0F);
    optimizer.step(1e-4F);
  }
  state.SetItemsProcessed(state.iterations() * batch * seq);
}
BENCHMARK(BM_TrainStep)
    ->Arg(48)
    ->Arg(80)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DecodeTokensPerSecond(benchmark::State& state) {
  const nn::TransformerLM model{bench_config(), 1};
  NoGradGuard no_grad;
  std::int64_t tokens = 0;
  for (auto _ : state) {
    auto decode_state = model.make_decode_state();
    for (std::int64_t t = 0; t < 64; ++t) {
      auto logits = model.decode_step(decode_state, static_cast<std::int32_t>(t % 50));
      benchmark::DoNotOptimize(logits.data());
      ++tokens;
    }
  }
  state.SetItemsProcessed(tokens);
}
BENCHMARK(BM_DecodeTokensPerSecond)->Unit(benchmark::kMillisecond);

// Speculative decode is a memory-bandwidth play: the batched verify pass
// streams each target weight row once for k tokens (gemm_nt_rowwise) where
// plain decode streams it k times, so the win only exists when the weights
// don't fit in cache. The small bench_config() is compute-bound and shows
// parity by design; this config is sized so one model exceeds the LLC and
// a decode step is bound by weight traffic, the regime the serving layer
// targets.
nn::ModelConfig spec_bench_config() {
  nn::ModelConfig config;
  config.vocab_size = data::Vocab::instance().size();
  config.d_model = 1024;
  config.n_heads = 8;
  config.n_layers = 8;
  config.d_ff = 2048;
  config.max_seq_len = 96;
  return config;
}

// Plain greedy decode on spec_bench_config(): the baseline row that
// BM_SpecDecode's items_per_second is read against.
void BM_SpecDecodePlain(benchmark::State& state) {
  const nn::TransformerLM model{spec_bench_config(), 1};
  const std::vector<std::int32_t> prompt{2, 11, 29, 7};
  nn::GenerateOptions options;
  options.max_new_tokens = 48;
  options.temperature = 0.0F;
  NoGradGuard no_grad;
  std::int64_t tokens = 0;
  for (auto _ : state) {
    const auto out = nn::generate(model, prompt, options);
    benchmark::DoNotOptimize(out.data());
    tokens += static_cast<std::int64_t>(out.size());
  }
  state.SetItemsProcessed(tokens);
}
BENCHMARK(BM_SpecDecodePlain)->Unit(benchmark::kMillisecond);

// Self-speculative decode throughput (nn::speculative_generate). Arg0 is the
// number of contiguous middle blocks pruned from the draft; Arg1 selects the
// oracle variant, which zeroes those blocks' output projections in the
// target first so the residual stream passes through them unchanged — the
// pruned draft then agrees with the target exactly, the acceptance ceiling a
// perfectly self-data-distilled draft would reach. /4/0 is the random-weight
// acceptance floor; /4/1 the ceiling, which must beat BM_SpecDecodePlain's
// items_per_second (the ISSUE's acceptance>=0.7 speedup criterion). The
// acceptance counter reports accepted/proposed.
void BM_SpecDecode(benchmark::State& state) {
  const std::int64_t pruned = state.range(0);
  const bool oracle = state.range(1) != 0;
  nn::TransformerLM target{spec_bench_config(), 1};
  const std::int64_t start = (target.n_layers() - pruned) / 2;
  if (oracle) {
    for (std::int64_t b = start; b < start + pruned; ++b) {
      auto& block = target.block(static_cast<std::size_t>(b));
      for (Tensor* w : {&block.attention().wo().weight(),
                        &block.mlp().w_down().weight()}) {
        for (auto& v : w->data()) v = 0.0F;
      }
    }
  }
  const nn::TransformerLM draft =
      pruned == 0 ? target.clone() : target.pruned(start, pruned);
  const std::vector<std::int32_t> prompt{2, 11, 29, 7};
  nn::GenerateOptions options;
  options.max_new_tokens = 48;
  options.temperature = 0.0F;
  NoGradGuard no_grad;
  std::int64_t tokens = 0;
  nn::SpecCounters totals;
  for (auto _ : state) {
    nn::SpecCounters counters;
    const auto out =
        nn::speculative_generate(target, draft, prompt, options, 4, &counters);
    benchmark::DoNotOptimize(out.data());
    tokens += static_cast<std::int64_t>(out.size());
    totals.add(counters);
  }
  state.SetItemsProcessed(tokens);
  state.counters["acceptance"] = benchmark::Counter(
      totals.proposed == 0
          ? 0.0
          : static_cast<double>(totals.accepted) /
                static_cast<double>(totals.proposed));
}
BENCHMARK(BM_SpecDecode)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

// One batched decode pass (TransformerLM::decode_batch) over `rows` sessions,
// each feeding one token at context 24 — a serving round of `rows` decoding
// slots. Shapes: 0 = bench_config() (the served d64 `full`), 1 = its
// pruned(6, 4) variant `p4`, 2 = the d256 / 8-layer / d_ff 512 target of the
// wide_spec workload. items_per_second counts rows, so its inverse is the
// per-row cost of the pass. Real time, because the d256 passes shard over the
// thread pool and the main thread's CPU time misses the workers' share.
void BM_DecodeBatch(benchmark::State& state) {
  nn::ModelConfig config = bench_config();
  if (state.range(0) == 2) {
    config.d_model = 256;
    config.n_layers = 8;
    config.d_ff = 512;
  }
  const nn::TransformerLM full{config, 1};
  const nn::TransformerLM model = state.range(0) == 1 ? full.pruned(6, 4) : full.clone();
  const auto rows = static_cast<std::size_t>(state.range(1));
  constexpr std::int64_t kContext = 24;
  std::vector<nn::TransformerLM::DecodeState> sessions;
  std::vector<std::int32_t> tokens(rows);
  Rng rng{5};
  for (std::size_t s = 0; s < rows; ++s) {
    sessions.push_back(model.make_decode_state());
    std::vector<std::int32_t> prompt(kContext);
    for (auto& id : prompt) {
      id = static_cast<std::int32_t>(rng.uniform_int(0, config.vocab_size - 1));
    }
    model.prefill(sessions.back(), prompt);
    tokens[s] = prompt.front();
  }
  std::vector<nn::TransformerLM::DecodeSegment> segments;
  for (std::size_t s = 0; s < rows; ++s) {
    segments.push_back({&sessions[s], {&tokens[s], 1}});
  }
  for (auto _ : state) {
    auto logits = model.decode_batch(segments);
    benchmark::DoNotOptimize(logits.data());
    for (auto& session : sessions) session.rollback(kContext);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_DecodeBatch)
    ->ArgsProduct({{0, 1, 2}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// One scheduler-shaped speculative round over S greedy slots at the
// wide_spec shape: the d256 / 8-layer / d_ff 512 target with blocks 2-5
// zeroed, so its pruned(2, 4) draft agrees exactly (acceptance 1.0), and
// k = 4. The round runs the DecodeSession phases the way
// InferenceServer::step_slots does: draft step j of every slot shares draft
// pass j, and every verify span shares one target pass. A slot that spent
// its 40-token budget is replaced, untimed, by a freshly prefilled one.
// us_per_token is round time per emitted token.
void BM_SpecServeRound(benchmark::State& state) {
  nn::ModelConfig config = bench_config();
  config.d_model = 256;
  config.n_layers = 8;
  config.d_ff = 512;
  nn::TransformerLM target{config, 1};
  for (std::size_t b = 2; b < 6; ++b) {
    for (Tensor* w : {&target.block(b).attention().wo().weight(),
                      &target.block(b).mlp().w_down().weight()}) {
      for (auto& v : w->data()) v = 0.0F;
    }
  }
  const nn::TransformerLM draft = target.pruned(2, 4);
  nn::GenerateOptions options;
  options.max_new_tokens = 40;
  options.temperature = 0.0F;
  Rng rng{9};
  std::vector<nn::DecodeSession> sessions;

  using Segment = nn::TransformerLM::DecodeSegment;
  std::vector<Segment> segments;
  std::vector<nn::DecodeSession*> joined;
  const auto round = [&] {
    for (nn::DecodeSession& session : sessions) session.advance();
    while (true) {
      segments.clear();
      joined.clear();
      for (nn::DecodeSession& session : sessions) {
        if (session.done()) continue;
        if (const auto segment = session.draft_segment()) {
          segments.push_back(*segment);
          joined.push_back(&session);
        }
      }
      if (segments.empty()) break;
      auto logits = draft.decode_batch(segments);
      for (std::size_t j = 0; j < joined.size(); ++j) {
        joined[j]->set_draft_logits(std::move(logits[j]));
      }
    }
    segments.clear();
    joined.clear();
    for (nn::DecodeSession& session : sessions) {
      if (session.done()) continue;
      segments.push_back(session.verify_segment());
      joined.push_back(&session);
    }
    auto logits = target.decode_batch(segments);
    for (std::size_t j = 0; j < joined.size(); ++j) {
      joined[j]->set_logits(std::move(logits[j]));
    }
  };
  const auto emitted = [&] {
    std::int64_t total = 0;
    for (const nn::DecodeSession& session : sessions) {
      total += session.spec_counters()->emitted();
    }
    return total;
  };

  NoGradGuard no_grad;
  std::int64_t tokens = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (sessions.empty() || sessions.front().done()) {
      // Every slot runs the same budget at acceptance 1.0, so they finish
      // together; restart all of them and prefill outside the timing.
      sessions.clear();
      for (std::int64_t slot = 0; slot < state.range(0); ++slot) {
        std::vector<std::int32_t> prompt(24);
        for (auto& id : prompt) {
          id = static_cast<std::int32_t>(rng.uniform_int(0, config.vocab_size - 1));
        }
        sessions.emplace_back(target, prompt, options, std::vector<std::int32_t>{}, 0,
                              &draft, 4);
      }
      round();
    }
    const std::int64_t before = emitted();
    state.ResumeTiming();
    round();
    const std::int64_t after = emitted();
    benchmark::DoNotOptimize(after);
    tokens += after - before;
  }
  state.SetItemsProcessed(tokens);
  state.counters["us_per_token"] = benchmark::Counter(
      static_cast<double>(tokens) * 1e-6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SpecServeRound)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Dependent scalar work the compiler cannot fold: `steps` multiply-adds.
float chain(std::int64_t steps, float x) {
  for (std::int64_t i = 0; i < steps; ++i) {
    x = x * 0.9999999F + 1e-7F;
    benchmark::DoNotOptimize(x);
  }
  return x;
}

// Two equal chunks of dependent scalar work (a few milliseconds each)
// through the global pool's parallel_for; /1 runs one chunk inline for
// reference. With SDD_THREADS >= 2 the second chunk goes to a pool worker, so
// /2 should take about as long as /1; it takes twice as long when the worker
// is woken onto the caller's CPU and the two time-share it. same_cpu is the
// share of calls whose two chunks ran on one CPU (sched_getcpu at the end of
// each chunk). See docs/kernels.md, Threading.
void BM_ParallelForTwoChunks(benchmark::State& state) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kSteps = std::int64_t{1} << 20;
  std::vector<int> cpus(chunks);
  std::int64_t same_cpu = 0;
  for (auto _ : state) {
    ThreadPool::global().parallel_for(0, chunks, [&](std::size_t c) {
      benchmark::DoNotOptimize(chain(kSteps, static_cast<float>(c + 1)));
      cpus[c] = sched_getcpu();
    });
    if (chunks == 2 && cpus[0] == cpus[1]) ++same_cpu;
  }
  state.counters["same_cpu"] =
      static_cast<double>(same_cpu) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ParallelForTwoChunks)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

bool pin_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

// Fork/join cost of a decode-sized sharded call: two ~20 us chunks through
// parallel_for on a one-worker pool, with ~10 us of serial work between
// calls (a decode pass's unsharded ops). The worker and this thread are
// pinned to two different CPUs (the pool is built from a helper thread
// pinned to one of them, so its worker inherits that mask), which takes
// placement out of the measurement: what is left is waking the worker and
// joining it. per_chunk is the mean call time over the mean time of one
// chunk run inline (twice the timed gap); 1.0 is a free fork/join. The
// library itself pins nothing; see docs/kernels.md, Threading.
void BM_ParallelForForkJoin(benchmark::State& state) {
  constexpr std::int64_t kChunkSteps = 6144;  // ~20 us
  constexpr std::int64_t kGapSteps = 3072;    // ~10 us
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed);
  std::array<int, 2> cpu{-1, -1};
  for (int c = 0, found = 0; c < CPU_SETSIZE && found < 2; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu[found++] = c;
  }
  if (cpu[1] < 0) {
    state.SkipWithError("needs two CPUs");
    return;
  }
  std::unique_ptr<ThreadPool> pool;
  bool worker_pinned = false;
  std::thread{[&] {
    worker_pinned = pin_thread(cpu[1]);
    pool = std::make_unique<ThreadPool>(1);
  }}.join();
  if (!worker_pinned || !pin_thread(cpu[0])) {
    state.SkipWithError("cannot pin threads");
    return;
  }

  using Clock = std::chrono::steady_clock;
  std::array<int, 2> ran_on{};
  std::int64_t same_cpu = 0;
  double call_s = 0.0;
  double gap_s = 0.0;
  for (auto _ : state) {
    const auto start = Clock::now();
    pool->parallel_for(0, 2, [&](std::size_t c) {
      benchmark::DoNotOptimize(chain(kChunkSteps, static_cast<float>(c + 1)));
      ran_on[c] = sched_getcpu();
    });
    const auto joined = Clock::now();
    if (ran_on[0] == ran_on[1]) ++same_cpu;
    benchmark::DoNotOptimize(chain(kGapSteps, 2.0F));
    call_s += std::chrono::duration<double>(joined - start).count();
    gap_s += std::chrono::duration<double>(Clock::now() - joined).count();
  }
  pool.reset();
  pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);

  // The gap is half a chunk's chain on this thread, timed in the same
  // iterations, so clock drift and a busy neighbour hit both sides alike.
  const double chunk_s = gap_s * (static_cast<double>(kChunkSteps) / kGapSteps);
  const auto calls = static_cast<double>(state.iterations());
  state.counters["same_cpu"] = static_cast<double>(same_cpu) / calls;
  state.counters["chunk_us"] = chunk_s / calls * 1e6;
  state.counters["call_us"] = call_s / calls * 1e6;
  state.counters["per_chunk"] = call_s / chunk_s;
}
BENCHMARK(BM_ParallelForForkJoin)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_PruneMetric(benchmark::State& state) {
  const nn::TransformerLM model{bench_config(), 1};
  const data::World world{42};
  const auto calibration = data::build_calibration_set(world, 4, 64, 99);
  for (auto _ : state) {
    const auto curve = core::compute_block_distances(
        model, calibration, 3, core::ImportanceMetric::kAngularCosine);
    benchmark::DoNotOptimize(curve.best_start);
  }
}
BENCHMARK(BM_PruneMetric)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
