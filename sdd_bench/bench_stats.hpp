// Measurement helpers of the end-to-end benchmark: percentiles, the seeded
// request schedule, SLO attainment, and in-memory trace spans with self
// times. Header-only; everything but Tracer is a pure function of its inputs,
// so test_bench_stats.cpp checks each rule on fixed inputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace sdd_bench {

// q-th percentile (q in [0, 100]) with linear interpolation between the two
// closest ranks (NumPy's default). 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// The highest of p50/p90/p99/p99.9 that has at least ten samples beyond it
// in a sample of `n`; nullopt when not even the median has (n < 20).
inline std::optional<double> supported_percentile(std::size_t n) {
  std::optional<double> best;
  for (const double q : {50.0, 90.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0 - 1e-9) best = q;
  }
  return best;
}

// ---- seeded traffic -------------------------------------------------------

// Shape of one workload's requests. Every random choice comes from the seed
// the benchmark was started with; the program under test only ever sees the
// generated requests.
struct Traffic {
  std::int64_t vocab = 0;
  std::int64_t prompt_min = 8;  // inclusive bounds, shared prefix included
  std::int64_t prompt_max = 24;
  std::int64_t shared_prefix = 0;  // leading tokens common to every prompt
  std::int64_t out_min = 16;
  std::int64_t out_max = 48;
  double sampled_share = 0.25;  // requests decoded at `temperature`
  float temperature = 0.8F;     // the rest are greedy
  std::vector<std::string> variants;  // each request is pinned to one, in
                                      // equal shares
};

struct GeneratedRequest {
  std::int64_t send_us = 0;  // open loop: due time from the phase start
  std::vector<std::int32_t> prompt;
  std::int64_t max_new_tokens = 0;
  float temperature = 0.0F;
  std::uint64_t seed = 0;
  std::string variant;
};

// Draws from a deck reshuffled after every pass, so each card comes up
// equally often. Lengths, temperatures and pins come from decks: every seed
// gets the same mix of request shapes, and only their order and token
// content change, which keeps run-to-run spread across seeds small.
class Deck {
 public:
  explicit Deck(std::vector<std::int64_t> cards) : cards_{std::move(cards)} {}

  // Cards lo..hi, once each.
  static Deck range(std::int64_t lo, std::int64_t hi) {
    std::vector<std::int64_t> cards;
    for (std::int64_t v = lo; v <= hi; ++v) cards.push_back(v);
    return Deck{std::move(cards)};
  }

  std::int64_t draw(sdd::Rng& rng) {
    if (next_ == cards_.size()) {
      for (std::size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng.index(i)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<std::int64_t> cards_;
  std::size_t next_ = cards_.size();
};

// Endless deterministic request stream: the same (traffic, seed, stream)
// always yields the same requests in the same order.
class RequestStream {
 public:
  static constexpr std::int64_t kShareDeck = 20;  // sampled_share resolution

  RequestStream(Traffic traffic, std::uint64_t seed, std::uint64_t stream)
      : traffic_{std::move(traffic)},
        rng_{sdd::Rng{seed}.fork(stream)},
        prompt_lengths_{Deck::range(traffic_.prompt_min, traffic_.prompt_max)},
        output_lengths_{Deck::range(traffic_.out_min, traffic_.out_max)},
        sampled_{share_deck(traffic_.sampled_share)},
        pins_{Deck::range(0, static_cast<std::int64_t>(traffic_.variants.size()) - 1)} {
    sdd::Rng prefix_rng = sdd::Rng{seed}.fork(0xF1C5ULL);  // same for all streams
    for (std::int64_t i = 0; i < traffic_.shared_prefix; ++i) {
      prefix_.push_back(random_token(prefix_rng));
    }
  }

  GeneratedRequest next() {
    GeneratedRequest request;
    const std::int64_t length = prompt_lengths_.draw(rng_);
    request.prompt = prefix_;
    while (static_cast<std::int64_t>(request.prompt.size()) < length) {
      request.prompt.push_back(random_token(rng_));
    }
    request.max_new_tokens = output_lengths_.draw(rng_);
    request.temperature = sampled_.draw(rng_) != 0 ? traffic_.temperature : 0.0F;
    request.seed = rng_.next_u64();
    if (!traffic_.variants.empty()) {
      request.variant = traffic_.variants[static_cast<std::size_t>(pins_.draw(rng_))];
    }
    return request;
  }

 private:
  static Deck share_deck(double share) {
    const auto ones = static_cast<std::int64_t>(std::llround(share * kShareDeck));
    std::vector<std::int64_t> cards(kShareDeck, 0);
    std::fill_n(cards.begin(), std::clamp<std::int64_t>(ones, 0, kShareDeck), 1);
    return Deck{std::move(cards)};
  }

  std::int32_t random_token(sdd::Rng& rng) const {
    return static_cast<std::int32_t>(rng.uniform_int(0, traffic_.vocab - 1));
  }

  Traffic traffic_;
  sdd::Rng rng_;
  Deck prompt_lengths_;
  Deck output_lengths_;
  Deck sampled_;
  Deck pins_;
  std::vector<std::int32_t> prefix_;
};

// Open-loop Poisson arrivals at `rate_hz` for `seconds`: exponential gaps
// drawn from their own stream, so send times do not shift when the request
// bodies change shape.
inline std::vector<GeneratedRequest> open_loop_schedule(const Traffic& traffic,
                                                        std::uint64_t seed,
                                                        double rate_hz,
                                                        double seconds) {
  std::vector<GeneratedRequest> schedule;
  RequestStream bodies{traffic, seed, 1};
  sdd::Rng gaps = sdd::Rng{seed}.fork(2);
  double t_s = 0.0;
  while (true) {
    t_s += -std::log(1.0 - gaps.uniform()) / rate_hz;
    if (t_s >= seconds) break;
    GeneratedRequest request = bodies.next();
    request.send_us = static_cast<std::int64_t>(std::llround(t_s * 1e6));
    schedule.push_back(std::move(request));
  }
  return schedule;
}

// ---- SLO attainment -------------------------------------------------------

struct Outcome {
  bool completed = false;  // false for failed, shed, rejected, timed out, ...
  double latency_ms = 0.0;
};

// Share of requests sent that completed within `limit_ms`. Every request that
// did not complete counts as a miss, whatever its latency.
inline double slo_attain(const std::vector<Outcome>& outcomes, double limit_ms) {
  if (outcomes.empty()) return 0.0;
  std::size_t met = 0;
  for (const Outcome& outcome : outcomes) {
    if (outcome.completed && outcome.latency_ms <= limit_ms) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(outcomes.size());
}

// ---- spans ----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::int64_t parent = -1;   // index of the enclosing span, -1 = root
  std::int64_t request = -1;  // request id, -1 = none
  bool rebuilt = false;       // reconstructed from reported durations, not
                              // timed by the benchmark
};

// Self time of every span: its duration minus the part of its interval
// covered by its direct children. Overlapping children are counted once and
// children sticking out of the parent are clipped to it.
inline std::vector<std::int64_t> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 || span.parent >= static_cast<std::int64_t>(spans.size())) {
      continue;
    }
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_us, parent.start_us);
    const std::int64_t hi = std::min(span.end_us, parent.end_us);
    if (hi > lo) children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_us;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = spans[i].end_us - spans[i].start_us - covered;
  }
  return self;
}

// In-memory span recorder. Disabled, every call is a branch and nothing is
// stored. Timestamps are steady_clock microseconds from construction. Not
// thread-safe: the benchmark records from its single driving thread.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_{enabled}, epoch_{Clock::now()} {}

  bool enabled() const { return enabled_; }

  std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch_)
        .count();
  }

  // Opens a span ending at end(); returns its index, or -1 when disabled.
  std::int64_t begin(std::string name, std::int64_t parent = -1,
                     std::int64_t request = -1) {
    if (!enabled_) return -1;
    const std::int64_t now = now_us();
    return add(Span{std::move(name), now, now, parent, request, false});
  }
  void end(std::int64_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }
  // Records a finished span; returns its index, or -1 when disabled.
  std::int64_t add(Span span) {
    if (!enabled_) return -1;
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: name, start_us, end_us, parent, request,
  // rebuilt. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& span : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"start_us\":%lld,\"end_us\":%lld,"
                   "\"parent\":%lld,\"request\":%lld,\"rebuilt\":%s}\n",
                   span.name.c_str(), static_cast<long long>(span.start_us),
                   static_cast<long long>(span.end_us),
                   static_cast<long long>(span.parent),
                   static_cast<long long>(span.request),
                   span.rebuilt ? "true" : "false");
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Closes a span on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::int64_t parent = -1,
        std::int64_t request = -1)
      : tracer_{tracer}, id_{tracer.begin(std::move(name), parent, request)} {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace sdd_bench
