// Self-speculative greedy decoding: a depth-pruned draft model proposes k
// tokens from its own KV cache; the full target model scores all k in one
// batched verify span (decode_span), accepts the longest matching prefix,
// and emits its own correction token at the first mismatch — or a bonus
// token when every proposal survives. This is the serving payoff of the
// paper: an SDD-recovered pruned model is distribution-matched to its
// unpruned teacher by construction, which is exactly what a draft model
// needs for a high acceptance rate.
//
// Bit-identity invariant: the emitted token sequence equals the target's
// unassisted greedy decode, byte for byte, regardless of the draft, k, or
// injected rejection faults. The argument:
//   * every emitted token is argmax(L) where L is the target's next-token
//     logits at exactly that sequence position;
//   * decode_span produces logits bitwise-identical to repeated decode_step
//     (dot-identical gemv reductions via gemm_nt_rowwise / Linear::apply, and
//     causally sequential attention against the same cache state);
//   * rejection rolls both KV caches back to the accepted prefix, and the
//     stale tail is overwritten before it can ever be read.
// A bad draft therefore only costs throughput (acceptance rate), never
// correctness. Greedy only: temperature sampling would need the
// accept/reject coin of distribution-preserving speculative sampling.
#pragma once

#include <cstdint>
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
class SpeculativeSession {
 public:
  SpeculativeSession(const TransformerLM& target, const TransformerLM& draft,
                     std::int64_t k, bool nan_guard = true);

  // Feed a prompt span through both models (no emission) with one
  // TransformerLM::prefill pass each, so each weight row streams once per
  // span and only the last row reaches the LM head. Consecutive calls may
  // split a prompt anywhere: the state and logits match one call over the
  // whole prompt bitwise. The whole prompt precedes the first round()
  // (std::logic_error otherwise).
  void prefill_span(std::span<const std::int32_t> tokens);

  // One speculative round. Emits between 1 and min(k, remaining-1)+1 tokens
  // (never more than `remaining`, which must be >= 1): the accepted draft
  // prefix plus the target's correction or bonus token. Throws
  // Error{kNumericDivergence} when nan_guard is on and the target produces
  // non-finite logits; non-finite *draft* logits degrade the round to a
  // target-only step instead (the draft cannot corrupt the output).
  std::vector<std::int32_t> round(std::int64_t remaining);

  // Target next-token logits after everything consumed so far [vocab]; the
  // serving fault hook and NaN guard inspect them between rounds.
  const std::vector<float>& logits() const { return target_logits_; }
  std::vector<float>& logits() { return target_logits_; }

  const SpecCounters& counters() const { return counters_; }

 private:
  std::int32_t greedy(std::span<const float> logits);

  const TransformerLM& target_;
  const TransformerLM& draft_;
  std::int64_t k_;
  bool nan_guard_;
  TransformerLM::DecodeState target_state_;
  TransformerLM::DecodeState draft_state_;
  std::vector<float> target_logits_;
  std::vector<float> draft_logits_;
  // The last emitted token of a round is fed lazily at the next round,
  // mirroring DecodeSession which never steps past the budget. The next
  // round feeds it to the draft sequentially but folds the target's copy
  // into the front of the batched verify span, so each round costs the
  // target exactly one decode_span pass.
  std::int32_t pending_ = -1;
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
