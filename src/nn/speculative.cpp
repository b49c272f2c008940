#include "nn/speculative.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace sdd::nn {
namespace {

bool has_nonfinite(std::span<const float> values) {
  for (const float v : values) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

}  // namespace

SpeculativeSession::SpeculativeSession(const TransformerLM& target,
                                       const TransformerLM& draft, std::int64_t k,
                                       bool nan_guard)
    : target_{target},
      draft_{draft},
      k_{std::max<std::int64_t>(1, k)},
      nan_guard_{nan_guard},
      target_state_{target.make_decode_state()},
      draft_state_{draft.make_decode_state()} {
  if (draft.config().vocab_size != target.config().vocab_size) {
    throw std::invalid_argument(
        "speculative: draft and target vocabulary sizes differ");
  }
  if (draft.config().max_seq_len < target.config().max_seq_len) {
    throw std::invalid_argument(
        "speculative: draft context window smaller than the target's");
  }
}

std::int32_t SpeculativeSession::greedy(std::span<const float> logits) {
  // Literally the shared greedy sampler, so ties break exactly as they do in
  // nn::generate and the serving decode loop.
  return sample_token(logits, /*temperature=*/0.0F, rng_);
}

void SpeculativeSession::poison_draft_logits(std::size_t fed_tokens) {
  // The draft poison schedule advances once per fed token, but only the
  // final token's verdict survives (its logits are the only ones kept), so
  // fault ordinals do not depend on how a prompt is chunked.
  bool poison = false;
  for (std::size_t i = 0; i < fed_tokens; ++i) {
    poison = fault::should_poison_draft_logits();
  }
  if (poison && !draft_logits_.empty()) {
    draft_logits_[0] = std::numeric_limits<float>::quiet_NaN();
  }
}

void SpeculativeSession::begin_prefill(std::span<const std::int32_t> chunk) {
  if (!chunk.empty() && counters_.rounds > 0) {
    throw std::logic_error("speculative prefill: the prompt must precede every round");
  }
  prefill_ = true;
  chunk_ = chunk;
  lead_drafted_ = false;
}

void SpeculativeSession::begin_round(std::int64_t remaining) {
  if (remaining <= 0) {
    throw std::logic_error("speculative round: no token budget remaining");
  }
  if (target_logits_.empty()) {
    throw std::logic_error("speculative round: prefill the prompt first");
  }
  ++counters_.rounds;
  prefill_ = false;
  lead_drafted_ = false;
  // The draft must consume last round's token before it can propose, but the
  // target's copy of that step rides at the front of the verify span —
  // folding it into the one target segment saves a full sequential target
  // forward per round, and the span makes the fold bitwise-invisible.
  span_.clear();
  if (owed_ >= 0) span_.push_back(owed_);
  draft_base_ = draft_state_.position + static_cast<std::int64_t>(span_.size());
  // A round always ends with one non-draft token (correction or bonus), so
  // the draft may propose at most remaining-1. With no headroom — or after
  // a draft numeric fault — the round degrades to exactly the step
  // nn::generate would take.
  width_ = std::min<std::int64_t>(k_, remaining - 1);
  draft_ok_ = width_ > 0;
}

std::optional<TransformerLM::DecodeSegment> SpeculativeSession::draft_segment() {
  if (!lead_drafted_) {
    lead_drafted_ = true;
    if (prefill_ && !chunk_.empty()) return DecodeSegment{&draft_state_, chunk_};
    if (!prefill_ && owed_ >= 0) return DecodeSegment{&draft_state_, {span_.data(), 1}};
  }
  if (prefill_ || !draft_ok_ || proposals() >= width_) return std::nullopt;
  if (has_nonfinite(draft_logits_)) {
    // The draft diverged mid-proposal: discard the round, rewind the draft,
    // and emit one token from the target alone. The target never consumes a
    // poisoned proposal, so the output is untouched.
    draft_ok_ = false;
    draft_state_.rollback(draft_base_);
    ++counters_.draft_fallbacks;
    return std::nullopt;
  }
  const auto vocab = static_cast<std::int32_t>(target_.config().vocab_size);
  span_.push_back(fault::corrupt_draft_token(greedy(draft_logits_), vocab));
  return DecodeSegment{&draft_state_, {&span_.back(), 1}};
}

void SpeculativeSession::set_draft_logits(std::vector<float> logits) {
  draft_logits_ = std::move(logits);
  poison_draft_logits(prefill_ ? chunk_.size() : 1);
}

TransformerLM::DecodeSegment SpeculativeSession::verify_segment() {
  if (prefill_) return {&target_state_, chunk_};
  // With the owed token in front, row 0 of a verify span is the target's
  // logits after consuming it (the basis predicting the first proposal,
  // bitwise what a sequential decode_step(owed) would return).
  if (verifying()) return {&target_state_, span_, /*all_logits=*/true};
  // Target-only step: settle the owed token, if any, then emit.
  return {&target_state_, std::span{span_}.first(owed_ >= 0 ? 1 : 0)};
}

std::vector<std::int32_t> SpeculativeSession::set_verify_logits(std::vector<float> rows) {
  const auto check = [this](std::span<const float> values, const char* phase) {
    if (nan_guard_ && has_nonfinite(values)) {
      throw Error(ErrorKind::kNumericDivergence,
                  std::string{"speculative: non-finite target logits during "} + phase);
    }
  };
  if (prefill_) {
    if (chunk_.empty()) return {};
    target_logits_ = std::move(rows);
    check(target_logits_, "prefill");
    return {};
  }
  if (!verifying()) {
    if (owed_ >= 0) {
      target_logits_ = std::move(rows);
      check(target_logits_, "decode");
    }
    owed_ = greedy(target_logits_);
    ++counters_.solo;
    return {owed_};
  }

  counters_.proposed += width_;
  check(rows, "verify");
  const std::int64_t vocab = target_.config().vocab_size;
  const std::int64_t offset = owed_ >= 0 ? 1 : 0;
  const std::int64_t target_base =
      target_state_.position - static_cast<std::int64_t>(span_.size());
  std::vector<std::int32_t> emitted;
  emitted.reserve(static_cast<std::size_t>(width_) + 1);
  // Logits predicting the first proposal: post-owed when a token was owed,
  // last round's (or prefill's) tail logits otherwise; rows[offset + i] are
  // the logits after proposal i.
  const float* prev = offset > 0 ? rows.data() : target_logits_.data();
  std::int64_t accepted = 0;
  while (accepted < width_) {
    const std::int32_t expect = greedy({prev, static_cast<std::size_t>(vocab)});
    if (span_[static_cast<std::size_t>(offset + accepted)] != expect) break;
    emitted.push_back(expect);
    prev = rows.data() + (offset + accepted) * vocab;
    ++accepted;
  }
  counters_.accepted += accepted;

  // `prev` is now the target's logits after the accepted prefix: its argmax
  // is the correction token on a mismatch, or the free bonus token when the
  // whole proposal survived. Either way the round nets one target token.
  owed_ = greedy({prev, static_cast<std::size_t>(vocab)});
  emitted.push_back(owed_);
  if (accepted < width_) {
    ++counters_.corrections;
    // The owed token stays consumed; only the rejected proposal tail rolls
    // back (in both caches).
    target_state_.rollback(target_base + offset + accepted);
    draft_state_.rollback(draft_base_ + accepted);
  } else {
    ++counters_.bonus;
  }
  target_logits_.assign(prev, prev + vocab);
  return emitted;
}

std::vector<std::int32_t> speculative_generate(const TransformerLM& target,
                                               const TransformerLM& draft,
                                               std::span<const std::int32_t> prompt,
                                               const GenerateOptions& options,
                                               std::int64_t k,
                                               SpecCounters* counters) {
  if (prompt.empty()) {
    throw std::invalid_argument("speculative_generate: empty prompt");
  }
  if (options.temperature > 0.0F) {
    throw std::invalid_argument(
        "speculative_generate: greedy only (temperature must be 0)");
  }
  DecodeSession session{target, prompt, options, {options.stop_token}, 0, &draft, k};
  std::vector<std::int32_t> generated = session.run();
  if (counters != nullptr) counters->add(*session.spec_counters());
  return generated;
}

}  // namespace sdd::nn
