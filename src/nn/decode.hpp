// Autoregressive decoding (greedy and temperature sampling) with KV cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nn/transformer.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace sdd::nn {

struct GenerateOptions {
  std::int64_t max_new_tokens = 48;
  float temperature = 0.0F;  // 0 => greedy argmax
  std::int32_t stop_token = -1;
  std::uint64_t seed = 1234;
  // Cooperative cancellation / deadline. The default (empty) token costs a
  // single null check per step; a real token is polled once per
  // DecodeSession step (a prompt chunk or a generated token, the unit
  // hang_decode ordinals count), and generation returns the tokens produced
  // so far when it reads as cancelled.
  CancelToken cancel{};
};

class PrefixCache;
class SpeculativeSession;
struct SpecCounters;

// Pick the next token from a logits row: argmax when temperature <= 0,
// softmax sampling at the given temperature otherwise. Shared by
// DecodeSession and SpeculativeSession so every decode samples identically.
std::int32_t sample_token(std::span<const float> logits, float temperature,
                          Rng& rng);

// One request's decode policy, shared by generate(), speculative_generate(),
// generative eval and every serving slot: prompt chunks of `prefill_chunk`
// tokens (0 = whole prompt), sampling seeded from options.seed, the stop set
// `stop` (not emitted) and the budget min(max_new_tokens, max_seq_len -
// prompt). Each advance() opens one step: cancellation check, heartbeat,
// fault::on_decode_token, then a prompt chunk or a sampled token, whose
// segment the caller runs (alone or in a shared decode_batch) and answers
// with set_logits(). With a `draft` (greedy only, `k` proposals per round)
// a step is a prefill chunk or a draft/verify round, run in phases: the
// caller feeds draft_segment() to the draft model until it returns nothing,
// answering each with set_draft_logits(), then runs verify_segment() on the
// target and answers it with set_logits(), which emits the round's tokens.
// run() drives exactly these phases one segment at a time; a server batches
// each phase across its slots. Throws std::invalid_argument on an empty
// prompt or a sampled draft.
//
// A plain session given a `prefix_cache` of the same model starts from the
// longest cached chain of its prompt, at most (prompt - 1) / chunk chunks,
// so the last prompt token is always computed and its logits come from a
// real pass. Restored chunks are not steps: they take no advance() and fire
// no hooks. After each prompt pass, set_logits() publishes every prompt
// chunk the state now holds whole; a failed pass never reaches it. A
// drafting session ignores the cache.
class DecodeSession {
 public:
  DecodeSession(const TransformerLM& model, std::span<const std::int32_t> prompt,
                const GenerateOptions& options, std::vector<std::int32_t> stop,
                std::size_t prefill_chunk = 0, const TransformerLM* draft = nullptr,
                std::int64_t k = 1, bool nan_guard = true,
                PrefixCache* prefix_cache = nullptr);
  DecodeSession(DecodeSession&&) noexcept;
  DecodeSession& operator=(DecodeSession&&) noexcept;
  ~DecodeSession();

  // Open the next step. Returns the segment to run (valid until the session
  // moves or advances), or nothing when the session is done() or drafts.
  std::optional<TransformerLM::DecodeSegment> advance();
  // Drafting sessions, after an advance() that left them running: the
  // step's next draft segment, or nothing once the draft is done; then the
  // step's target segment (no tokens when the step needs no pass: answer it
  // with empty logits).
  std::optional<TransformerLM::DecodeSegment> draft_segment();
  void set_draft_logits(std::vector<float> logits);
  TransformerLM::DecodeSegment verify_segment();
  // Answers the step's target segment. A drafting session emits its round
  // here and may finish; it throws Error{kNumericDivergence} on non-finite
  // target logits when its NaN guard is on.
  void set_logits(std::vector<float> logits);
  // Step to completion, one segment per pass; returns the generated tokens.
  std::vector<std::int32_t> run();

  bool drafting() const { return spec_ != nullptr; }
  bool done() const { return done_; }
  // Done because options.cancel fired; the output is partial.
  bool cancelled() const { return cancelled_; }
  // Next-token logits; the serving fault hook and NaN guard inspect them.
  std::vector<float>& logits();
  std::vector<std::int32_t> take_generated() { return std::move(generated_); }
  const SpecCounters* spec_counters() const;  // null without a draft
  // Prompt tokens restored from the prefix cache instead of computed.
  std::size_t prefill_reused() const { return reused_; }

 private:
  // Keeps `token` unless it is in the stop set, which ends the session.
  bool keep(std::int32_t token);

  const TransformerLM* model_;
  std::vector<std::int32_t> prompt_;
  std::vector<std::int32_t> stop_;
  float temperature_;
  CancelToken cancel_;
  std::size_t prefill_chunk_;
  std::size_t fed_ = 0;
  PrefixCache* prefix_cache_ = nullptr;  // null when drafting or uncached
  std::size_t reused_ = 0;
  std::size_t published_ = 0;  // prompt chunks restored or published
  std::int64_t budget_;
  Rng rng_;
  TransformerLM::DecodeState state_;  // empty when drafting
  std::unique_ptr<SpeculativeSession> spec_;
  std::vector<float> logits_;
  std::vector<std::int32_t> generated_;
  bool done_ = false;
  bool cancelled_ = false;
};

// Feed `prompt` through the model and decode up to max_new_tokens more.
// Returns ONLY the newly generated tokens; generation stops at stop_token
// (which is not included), at the model's context limit, or early — with a
// partial result — when options.cancel is cancelled or past its deadline.
// It runs a DecodeSession, so it heartbeats once per step and is covered by
// SDD_STAGE_HANG_SEC watchdogs under a supervised stage.
std::vector<std::int32_t> generate(const TransformerLM& model,
                                   std::span<const std::int32_t> prompt,
                                   const GenerateOptions& options);

// Sum of log p(continuation | prompt) under the model, computed with one
// batched forward. Used for multiple-choice scoring. Throws Error{timeout}
// when `cancel` is cancelled or past its deadline (a partial logprob would
// be meaningless, so unlike generate() this cannot return partial work).
double sequence_logprob(const TransformerLM& model,
                        std::span<const std::int32_t> prompt,
                        std::span<const std::int32_t> continuation,
                        const CancelToken& cancel = {});

}  // namespace sdd::nn
