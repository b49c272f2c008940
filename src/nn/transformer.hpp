// Decoder-only transformer language model (Llama-style: RMSNorm pre-norm,
// RoPE attention, SwiGLU MLP, tied input/output embeddings).
//
// This class is also where the paper's structural surgery happens:
// `pruned(start, n)` returns a model with decoder blocks [start, start+n)
// removed and the residual stream rewired (Algorithm 1, lines 11-12).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/block.hpp"
#include "nn/config.hpp"
#include "nn/module.hpp"
#include "tensor/tensor.hpp"

namespace sdd::nn {

#define SDD_LORA_FIELDS(X)                                                    \
  X(std::int64_t, rank, 8, kKey, "adapter rank")                            \
  X(float, alpha, 16.0F, kKey, "adapter scale is alpha / rank")             \
  X(bool, on_attention, true, kKey, "adapt the attention projections")      \
  X(bool, on_mlp, true, kKey, "adapt the MLP projections")

struct LoraConfig {
  SDD_CONFIG_FIELDS(SDD_LORA_FIELDS)

  std::uint64_t hash() const { return config::hash(*this); }
};

class TransformerLM {
 public:
  TransformerLM() = default;
  TransformerLM(const ModelConfig& config, std::uint64_t seed);

  const ModelConfig& config() const { return config_; }
  std::int64_t n_layers() const { return static_cast<std::int64_t>(blocks_.size()); }

  // Training/eval forward: `ids` holds batch*seq token ids; returns logits
  // [batch, seq, vocab].
  Tensor forward(const std::vector<std::int32_t>& ids, std::int64_t batch,
                 std::int64_t seq) const;

  // Residual-stream activations at every block boundary (no autograd):
  // result[0] is the embedding output (input of block 0) and result[l] is the
  // output of block l-1; each entry is a flat [batch*seq*d_model] buffer.
  std::vector<std::vector<float>> hidden_states(const std::vector<std::int32_t>& ids,
                                                std::int64_t batch,
                                                std::int64_t seq) const;

  // ---- incremental decoding -------------------------------------------
  struct DecodeState {
    std::vector<LayerKVCache> caches;
    std::int64_t position = 0;
    void reset();
    // Rewind to an earlier position, discarding the later cached keys and
    // values (speculative rollback after rejected draft tokens). The stale
    // cache tail is overwritten before it can be read, so decoding after a
    // rollback is bit-identical to never having decoded past `position`.
    void rollback(std::int64_t position);
  };

  DecodeState make_decode_state() const;

  // One session's share of a batched decode pass: feed `tokens` into
  // `state` (a prompt chunk, the one token a decoding session sampled, or a
  // speculative verify span). `all_logits` asks for the next-token logits
  // after every token instead of only the last.
  struct DecodeSegment {
    DecodeState* state = nullptr;
    std::span<const std::int32_t> tokens;
    bool all_logits = false;
  };
  // Batched decode across independent sessions: one forward pass over the
  // stacked rows of every segment. Norms, projections, SwiGLU and the LM
  // head run once over all rows (the head over the requested ones), so each
  // weight block streams once per pass instead of once per session; RoPE,
  // K/V writes and attention stay per segment against its own state.
  // Returns, per segment, the next-token logits [vocab] after its last token
  // — or [tokens, vocab] row-major for an `all_logits` segment, and empty
  // for a segment with no tokens — bitwise-identical to prefill() or
  // decode_span() on that state alone, whatever else shares the pass.
  // Throws, leaving every state untouched, on a token out of range, a state
  // that appears twice, or a segment that would overflow the context.
  std::vector<std::vector<float>> decode_batch(
      std::span<const DecodeSegment> segments) const;
  // Prompt prefill: a one-segment decode_batch, returning the logits [vocab]
  // after the last token (empty for no tokens), bitwise-identical to the
  // last decode_step() of a per-token feed. Any split of a prompt into
  // consecutive prefill() calls leaves the same state and final logits.
  std::vector<float> prefill(DecodeState& state,
                             std::span<const std::int32_t> tokens) const;
  // Feed one token; returns the next-token logits [vocab].
  std::vector<float> decode_step(DecodeState& state, std::int32_t token) const;
  // Feed `tokens` consecutively and return all next-token logits as a
  // [tokens.size(), vocab] row-major buffer: a one-segment decode_batch with
  // all_logits. Row t is bitwise-identical to the decode_step() of token t.
  std::vector<float> decode_span(DecodeState& state,
                                 std::span<const std::int32_t> tokens) const;

  // ---- structural surgery ----------------------------------------------
  TransformerLM clone() const;
  // Remove blocks [start, start+n): output of block start-1 feeds block
  // start+n directly. Embeddings and final norm are shared by value copy.
  TransformerLM pruned(std::int64_t start, std::int64_t n) const;

  // ---- parameters --------------------------------------------------------
  ParamList parameters() const;
  ParamList trainable_parameters() const;
  std::int64_t param_count() const;
  std::uint64_t weight_hash() const;

  // Freeze/unfreeze everything (used around LoRA fine-tuning).
  void set_trainable(bool trainable);

  // ---- LoRA ---------------------------------------------------------------
  void attach_lora(const LoraConfig& config, std::uint64_t seed);
  void merge_lora();
  bool has_lora() const;

  // ---- persistence ---------------------------------------------------------
  void save(const std::filesystem::path& path) const;
  static TransformerLM load(const std::filesystem::path& path);

  const Tensor& token_embedding() const { return tok_embed_; }
  TransformerBlock& block(std::size_t i) { return *blocks_.at(i); }
  const TransformerBlock& block(std::size_t i) const { return *blocks_.at(i); }

 private:
  Tensor final_hidden(const std::vector<std::int32_t>& ids, std::int64_t batch,
                      std::int64_t seq) const;
  // Embed every segment's tokens and run the stacked rows through every
  // block, each segment at its state's position; returns the final hidden
  // rows [total tokens, d_model] in segment order.
  std::vector<float> run_segments(std::span<const DecodeSegment> segments) const;
  // Final norm + tied LM head over `rows` hidden rows -> [rows, vocab].
  std::vector<float> head_logits(const float* x, std::int64_t rows) const;

  ModelConfig config_;
  Tensor tok_embed_;  // [vocab, d_model]; also the (tied) output projection
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  RMSNorm final_norm_;
};

}  // namespace sdd::nn
