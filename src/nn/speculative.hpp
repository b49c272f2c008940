// Self-speculative greedy decoding: a depth-pruned draft model proposes k
// tokens from its own KV cache; the full target model scores all k in one
// verify span (an all_logits decode segment, which a server batches with
// every other slot's work of the round), accepts the longest matching
// prefix, and emits its own correction token at the first mismatch — or a
// bonus token when every proposal survives. This is the serving payoff of the
// paper: an SDD-recovered pruned model is distribution-matched to its
// unpruned teacher by construction, which is exactly what a draft model
// needs for a high acceptance rate.
//
// Bit-identity invariant: the emitted token sequence equals the target's
// unassisted greedy decode, byte for byte, regardless of the draft, k, or
// injected rejection faults. The argument:
//   * every emitted token is argmax(L) where L is the target's next-token
//     logits at exactly that sequence position;
//   * a verify span produces logits bitwise-identical to repeated
//     decode_step, whatever else shares its decode_batch (dot-identical gemv
//     reductions via gemm_nt_rowwise / Linear::apply, and causally
//     sequential attention per segment against its own cache state);
//   * rejection rolls both KV caches back to the accepted prefix, and the
//     stale tail is overwritten before it can ever be read.
// A bad draft therefore only costs throughput (acceptance rate), never
// correctness. Greedy only: temperature sampling would need the
// accept/reject coin of distribution-preserving speculative sampling.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "util/rng.hpp"

namespace sdd::nn {

// Acceptance / draft-efficiency telemetry. One counter set per session; the
// serving layer aggregates them per request and per task.
struct SpecCounters {
  std::int64_t rounds = 0;           // speculative rounds run
  std::int64_t proposed = 0;         // draft tokens proposed and verified
  std::int64_t accepted = 0;         // proposals accepted by the target
  std::int64_t corrections = 0;      // target corrections on first mismatch
  std::int64_t bonus = 0;            // bonus tokens after full acceptance
  std::int64_t solo = 0;             // target-only emissions (no headroom or
                                     // draft fallback)
  std::int64_t draft_fallbacks = 0;  // rounds degraded by non-finite draft
                                     // logits (subset of solo)

  // Fraction of verified proposals the target accepted; 0 when none ran.
  double acceptance_rate() const {
    return proposed > 0 ? static_cast<double>(accepted) /
                              static_cast<double>(proposed)
                        : 0.0;
  }
  // Tokens emitted through the speculative path.
  std::int64_t emitted() const { return accepted + corrections + bonus + solo; }

  bool operator==(const SpecCounters&) const = default;

  void add(const SpecCounters& other) {
    rounds += other.rounds;
    proposed += other.proposed;
    accepted += other.accepted;
    corrections += other.corrections;
    bonus += other.bonus;
    solo += other.solo;
    draft_fallbacks += other.draft_fallbacks;
  }
};

// Incremental draft-and-verify session over a (target, draft) pair, stepped
// by a draft-equipped DecodeSession (speculative_generate() and every
// speculative serving slot). Both models must outlive the session, share
// the vocabulary, and the draft's context window must not be smaller than
// the target's.
//
// The session never runs a model itself. Each step — a prompt chunk or one
// draft/verify round — is opened by begin_prefill() or begin_round(), then
// hands out segments for its caller to run, alone or in a decode_batch
// shared with other sessions:
//   1. draft_segment() until it returns nothing, each answered by
//      set_draft_logits(): the prompt chunk, or the owed token and then one
//      greedy proposal per call (at most k+1 draft segments per round);
//   2. verify_segment(), answered by set_verify_logits(): the prompt chunk
//      (last-row logits), or the verify span [owed?, proposals...] with
//      all_logits. It returns the tokens the step emits.
// A verify segment with no tokens needs no pass: answer it with empty
// logits.
class SpeculativeSession {
 public:
  using DecodeSegment = TransformerLM::DecodeSegment;

  SpeculativeSession(const TransformerLM& target, const TransformerLM& draft,
                     std::int64_t k, bool nan_guard = true);

  // Open a step feeding a prompt span into both models (no emission), each
  // as one segment, so each weight row streams once per span and only the
  // last row reaches the LM head. Consecutive calls may split a prompt
  // anywhere: the state and logits match one call over the whole prompt
  // bitwise. The whole prompt precedes the first round (std::logic_error
  // otherwise). The chunk must outlive the step.
  void begin_prefill(std::span<const std::int32_t> chunk);
  // Open one speculative round, which emits between 1 and
  // min(k, remaining-1)+1 tokens (never more than `remaining`, which must be
  // >= 1): the accepted draft prefix plus the target's correction or bonus
  // token.
  void begin_round(std::int64_t remaining);

  // The step's next draft feed, or nothing once the draft is done for this
  // step. Valid until the next call on the session.
  std::optional<DecodeSegment> draft_segment();
  void set_draft_logits(std::vector<float> logits);

  // The step's target segment, after the draft is done.
  DecodeSegment verify_segment();
  // Accept or roll back and return the emitted tokens (none for a prompt
  // chunk). Throws Error{kNumericDivergence} when nan_guard is on and the
  // target produced non-finite logits; non-finite *draft* logits degrade the
  // round to a target-only step instead (the draft cannot corrupt the
  // output).
  std::vector<std::int32_t> set_verify_logits(std::vector<float> rows);

  // Target next-token logits after everything consumed so far [vocab]; the
  // serving fault hook and NaN guard inspect them between steps.
  const std::vector<float>& logits() const { return target_logits_; }
  std::vector<float>& logits() { return target_logits_; }

  const TransformerLM& draft() const { return draft_; }
  const SpecCounters& counters() const { return counters_; }

 private:
  std::int32_t greedy(std::span<const float> logits);
  // Poison fresh draft logits when the draft_nan schedule says so; one
  // schedule slot per fed token, the last one's verdict kept.
  void poison_draft_logits(std::size_t fed_tokens);
  std::int64_t proposals() const {
    return static_cast<std::int64_t>(span_.size()) - (owed_ >= 0 ? 1 : 0);
  }
  // The round's draft is done and its proposals stand.
  bool verifying() const { return draft_ok_ && proposals() == width_; }

  const TransformerLM& target_;
  const TransformerLM& draft_;
  std::int64_t k_;
  bool nan_guard_;
  TransformerLM::DecodeState target_state_;
  TransformerLM::DecodeState draft_state_;
  std::vector<float> target_logits_;
  std::vector<float> draft_logits_;
  // The last emitted token, which neither model has consumed yet: it is fed
  // lazily at the next round, mirroring DecodeSession which never steps past
  // the budget. That round feeds it to the draft as its first draft segment
  // but folds the target's copy into the front of the verify span, so each
  // round costs the target exactly one segment.
  std::int32_t owed_ = -1;
  // The open step: a prompt chunk or a round; whether its lead draft
  // segment (the chunk, or the owed token) was handed out; and for a round,
  // its verify span [owed?, proposals...], proposal width, whether the
  // draft stayed finite, and the draft position after the owed token.
  bool prefill_ = false;
  std::span<const std::int32_t> chunk_;
  bool lead_drafted_ = false;
  std::vector<std::int32_t> span_;
  std::int64_t width_ = 0;
  bool draft_ok_ = false;
  std::int64_t draft_base_ = 0;
  Rng rng_{0};  // unused by greedy sampling; keeps sample_token shared
  SpecCounters counters_;
};

// One-shot speculative decode with nn::generate semantics (stop token and
// context budget included): returns ONLY the newly generated tokens, which
// are bit-identical to generate(target, prompt, options). Greedy only —
// throws std::invalid_argument when options.temperature > 0. `counters`,
// when non-null, receives the session telemetry.
std::vector<std::int32_t> speculative_generate(const TransformerLM& target,
                                               const TransformerLM& draft,
                                               std::span<const std::int32_t> prompt,
                                               const GenerateOptions& options,
                                               std::int64_t k,
                                               SpecCounters* counters = nullptr);

}  // namespace sdd::nn
