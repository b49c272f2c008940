#include "nn/speculative.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/supervisor.hpp"

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

void SpeculativeSession::prefill_span(std::span<const std::int32_t> tokens) {
  if (tokens.empty()) return;
  if (pending_ >= 0) {
    throw std::logic_error("speculative prefill: the prompt must precede every round");
  }
  target_logits_ = target_.prefill(target_state_, tokens);
  if (nan_guard_ && has_nonfinite(target_logits_)) {
    throw Error(ErrorKind::kNumericDivergence,
                "speculative: non-finite target logits during prefill");
  }
  draft_logits_ = draft_.prefill(draft_state_, tokens);
  // The draft poison schedule advances once per fed token, as it does in
  // decode_step feeds, but only the final token's verdict survives (its
  // logits are the only ones kept). Consume one slot per token and honor
  // the last, so fault ordinals do not depend on how a prompt is chunked.
  bool poison = false;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    poison = fault::should_poison_draft_logits();
  }
  if (poison && !draft_logits_.empty()) {
    draft_logits_[0] = std::numeric_limits<float>::quiet_NaN();
  }
}

std::vector<std::int32_t> SpeculativeSession::round(std::int64_t remaining) {
  if (remaining <= 0) {
    throw std::logic_error("speculative round: no token budget remaining");
  }
  if (target_logits_.empty()) {
    throw std::logic_error("speculative round: prefill the prompt first");
  }
  ++counters_.rounds;
  const std::int32_t vocab =
      static_cast<std::int32_t>(target_.config().vocab_size);

  // The draft must consume last round's token before it can propose, but the
  // target's copy of that step rides at the front of the verify span below —
  // folding it into the batched pass saves a full sequential target forward
  // per round, and decode_span makes the fold bitwise-invisible.
  const std::int32_t owed = pending_;
  pending_ = -1;
  if (owed >= 0) {
    draft_logits_ = draft_.decode_step(draft_state_, owed);
    if (fault::should_poison_draft_logits() && !draft_logits_.empty()) {
      draft_logits_[0] = std::numeric_limits<float>::quiet_NaN();
    }
  }

  // A round always ends with one non-draft token (correction or bonus), so
  // the draft may propose at most remaining-1. With no headroom — or after
  // a draft numeric fault below — the round degrades to exactly the step
  // nn::generate would take.
  const std::int64_t width = std::min<std::int64_t>(k_, remaining - 1);

  std::vector<std::int32_t> proposal;
  bool draft_ok = width > 0;
  const std::int64_t draft_base = draft_state_.position;
  if (draft_ok) {
    proposal.reserve(static_cast<std::size_t>(width));
    for (std::int64_t i = 0; i < width; ++i) {
      supervisor::heartbeat();
      if (has_nonfinite(draft_logits_)) {
        draft_ok = false;
        break;
      }
      std::int32_t token = greedy(draft_logits_);
      token = fault::corrupt_draft_token(token, vocab);
      proposal.push_back(token);
      draft_logits_ = draft_.decode_step(draft_state_, token);
      if (fault::should_poison_draft_logits() && !draft_logits_.empty()) {
        draft_logits_[0] = std::numeric_limits<float>::quiet_NaN();
      }
    }
  }

  if (width > 0 && !draft_ok) {
    // The draft diverged mid-proposal: discard the round, rewind the draft,
    // and emit one token from the target alone. The target never consumed a
    // poisoned proposal, so the output is untouched.
    draft_state_.rollback(draft_base);
    ++counters_.draft_fallbacks;
  }

  if (width <= 0 || !draft_ok) {
    // Target-only step: settle the owed token sequentially, then emit.
    if (owed >= 0) {
      target_logits_ = target_.decode_step(target_state_, owed);
      if (nan_guard_ && has_nonfinite(target_logits_)) {
        throw Error(ErrorKind::kNumericDivergence,
                    "speculative: non-finite target logits during decode");
      }
    }
    const std::int32_t next = greedy(target_logits_);
    ++counters_.solo;
    pending_ = next;
    return {next};
  }

  // Batched verify over [owed?, proposal...]: with the owed token in front,
  // rows[0] is the target's logits after consuming it (the basis predicting
  // proposal[0], bitwise what a sequential decode_step(owed) would return)
  // and rows[offset + i] the logits after proposal[i].
  counters_.proposed += width;
  const std::int64_t target_base = target_state_.position;
  std::vector<std::int32_t> span;
  span.reserve(proposal.size() + 1);
  if (owed >= 0) span.push_back(owed);
  span.insert(span.end(), proposal.begin(), proposal.end());
  const std::int64_t offset = owed >= 0 ? 1 : 0;
  const std::vector<float> rows = target_.decode_span(target_state_, span);
  if (nan_guard_ && has_nonfinite(rows)) {
    throw Error(ErrorKind::kNumericDivergence,
                "speculative: non-finite target logits during verify");
  }

  std::vector<std::int32_t> emitted;
  emitted.reserve(static_cast<std::size_t>(width) + 1);
  // Logits predicting proposal[0]: post-owed when a token was owed, last
  // round's (or prefill's) tail logits otherwise.
  const float* prev =
      offset > 0 ? rows.data() : target_logits_.data();
  std::int64_t accepted = 0;
  while (accepted < width) {
    const std::int32_t expect = greedy({prev, static_cast<std::size_t>(vocab)});
    if (proposal[static_cast<std::size_t>(accepted)] != expect) break;
    emitted.push_back(expect);
    prev = rows.data() + (offset + accepted) * vocab;
    ++accepted;
  }
  counters_.accepted += accepted;

  // `prev` is now the target's logits after the accepted prefix: its argmax
  // is the correction token on a mismatch, or the free bonus token when the
  // whole proposal survived. Either way the round nets one target token.
  const std::int32_t next = greedy({prev, static_cast<std::size_t>(vocab)});
  emitted.push_back(next);
  if (accepted < width) {
    ++counters_.corrections;
    // The owed token stays consumed; only the rejected proposal tail rolls
    // back (in both caches).
    target_state_.rollback(target_base + offset + accepted);
    draft_state_.rollback(draft_base + accepted);
  } else {
    ++counters_.bonus;
  }
  target_logits_.assign(prev, prev + vocab);
  pending_ = next;
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
