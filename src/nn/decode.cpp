#include "nn/decode.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/prefix_cache.hpp"
#include "nn/speculative.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/supervisor.hpp"

namespace sdd::nn {
namespace {

std::int32_t argmax(std::span<const float> logits) {
  return static_cast<std::int32_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

std::int32_t sample_with_temperature(std::span<const float> logits, float temperature,
                                     Rng& rng) {
  const float max_logit = *std::max_element(logits.begin(), logits.end());
  std::vector<double> probs(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(static_cast<double>((logits[i] - max_logit) / temperature));
    sum += probs[i];
  }
  double target = rng.uniform() * sum;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    target -= probs[i];
    if (target < 0.0) return static_cast<std::int32_t>(i);
  }
  return static_cast<std::int32_t>(probs.size() - 1);
}

}  // namespace

std::int32_t sample_token(std::span<const float> logits, float temperature,
                          Rng& rng) {
  return temperature <= 0.0F ? argmax(logits)
                             : sample_with_temperature(logits, temperature, rng);
}

DecodeSession::DecodeSession(const TransformerLM& model,
                             std::span<const std::int32_t> prompt,
                             const GenerateOptions& options,
                             std::vector<std::int32_t> stop,
                             std::size_t prefill_chunk, const TransformerLM* draft,
                             std::int64_t k, bool nan_guard,
                             PrefixCache* prefix_cache)
    : model_{&model},
      prompt_{prompt.begin(), prompt.end()},
      stop_{std::move(stop)},
      temperature_{options.temperature},
      cancel_{options.cancel},
      prefill_chunk_{prefill_chunk > 0 ? prefill_chunk : prompt.size()},
      budget_{std::min(options.max_new_tokens,
                       model.config().max_seq_len -
                           static_cast<std::int64_t>(prompt.size()))},
      rng_{options.seed} {
  if (prompt.empty()) throw std::invalid_argument("DecodeSession: empty prompt");
  if (draft == nullptr) {
    state_ = model.make_decode_state();
    if (prefix_cache != nullptr) {
      if (&prefix_cache->model() != &model) {
        throw std::invalid_argument("DecodeSession: prefix cache of another model");
      }
      prefix_cache_ = prefix_cache;
      // The last prompt token is always computed.
      published_ = prefix_cache->restore(std::span{prompt_}.first(prompt_.size() - 1),
                                         state_);
      reused_ = fed_ = published_ * prefix_cache->chunk();
    }
  } else if (temperature_ > 0.0F) {
    throw std::invalid_argument("DecodeSession: drafting is greedy only");
  } else {
    spec_ = std::make_unique<SpeculativeSession>(model, *draft, k, nan_guard);
  }
}

DecodeSession::DecodeSession(DecodeSession&&) noexcept = default;
DecodeSession& DecodeSession::operator=(DecodeSession&&) noexcept = default;
DecodeSession::~DecodeSession() = default;

std::optional<TransformerLM::DecodeSegment> DecodeSession::advance() {
  if (done_) return std::nullopt;
  if (cancel_.cancelled()) {
    cancelled_ = done_ = true;
    return std::nullopt;
  }
  supervisor::heartbeat();
  fault::on_decode_token();

  if (fed_ < prompt_.size()) {
    // Chunked span prefill leaves the same state and logits as one pass.
    const std::span<const std::int32_t> chunk = std::span{prompt_}.subspan(
        fed_, std::min(prefill_chunk_, prompt_.size() - fed_));
    fed_ += chunk.size();
    if (!spec_) return TransformerLM::DecodeSegment{&state_, chunk};
    spec_->begin_prefill(chunk);
    return std::nullopt;
  }
  const auto remaining = budget_ - static_cast<std::int64_t>(generated_.size());
  done_ = remaining <= 0;
  if (done_) return std::nullopt;
  if (spec_) {
    spec_->begin_round(remaining);
    return std::nullopt;
  }
  if (!keep(sample_token(logits_, temperature_, rng_))) return std::nullopt;
  // The token that spends the budget is never fed.
  done_ = static_cast<std::int64_t>(generated_.size()) >= budget_;
  if (done_) return std::nullopt;
  return TransformerLM::DecodeSegment{&state_, {&generated_.back(), 1}};
}

bool DecodeSession::keep(std::int32_t token) {
  done_ = std::ranges::find(stop_, token) != stop_.end();
  if (!done_) generated_.push_back(token);
  return !done_;
}

std::optional<TransformerLM::DecodeSegment> DecodeSession::draft_segment() {
  return spec_ ? spec_->draft_segment() : std::nullopt;
}

void DecodeSession::set_draft_logits(std::vector<float> logits) {
  spec_->set_draft_logits(std::move(logits));
}

TransformerLM::DecodeSegment DecodeSession::verify_segment() {
  return spec_->verify_segment();
}

void DecodeSession::set_logits(std::vector<float> logits) {
  if (spec_) {
    // A round emits the target's greedy choices in order, so the stop set
    // and budget see exactly the sequence a plain session produces.
    const std::vector<std::int32_t> emitted = spec_->set_verify_logits(std::move(logits));
    for (const std::int32_t token : emitted) {
      if (!keep(token)) return;
    }
    if (!emitted.empty()) {
      done_ = static_cast<std::int64_t>(generated_.size()) >= budget_;
    }
    return;
  }
  logits_ = std::move(logits);
  if (prefix_cache_ == nullptr) return;
  for (; (published_ + 1) * prefix_cache_->chunk() <= fed_; ++published_) {
    prefix_cache_->publish(prompt_, published_, state_);
  }
}

std::vector<std::int32_t> DecodeSession::run() {
  NoGradGuard no_grad;
  while (!done_) {
    std::optional<TransformerLM::DecodeSegment> segment = advance();
    if (spec_ && !done_) {
      while (const auto draft = draft_segment()) {
        set_draft_logits(std::move(spec_->draft().decode_batch({&*draft, 1}).front()));
      }
      segment = verify_segment();
    }
    if (segment) set_logits(std::move(model_->decode_batch({&*segment, 1}).front()));
  }
  return take_generated();
}

std::vector<float>& DecodeSession::logits() {
  return spec_ ? spec_->logits() : logits_;
}

const SpecCounters* DecodeSession::spec_counters() const {
  return spec_ ? &spec_->counters() : nullptr;
}

std::vector<std::int32_t> generate(const TransformerLM& model,
                                   std::span<const std::int32_t> prompt,
                                   const GenerateOptions& options) {
  return DecodeSession{model, prompt, options, {options.stop_token}}.run();
}

double sequence_logprob(const TransformerLM& model,
                        std::span<const std::int32_t> prompt,
                        std::span<const std::int32_t> continuation,
                        const CancelToken& cancel) {
  if (prompt.empty() || continuation.empty()) {
    throw std::invalid_argument("sequence_logprob: empty prompt or continuation");
  }
  NoGradGuard no_grad;

  std::vector<std::int32_t> ids(prompt.begin(), prompt.end());
  ids.insert(ids.end(), continuation.begin(), continuation.end());
  const auto total = static_cast<std::int64_t>(ids.size());
  if (total > model.config().max_seq_len) {
    throw std::invalid_argument("sequence_logprob: sequence exceeds context window");
  }

  supervisor::heartbeat();
  if (cancel.cancelled()) {
    throw Error(ErrorKind::kTimeout,
                std::string{"sequence_logprob: "} + cancel.reason());
  }
  const Tensor logits = model.forward(ids, /*batch=*/1, /*seq=*/total);
  const std::int64_t vocab = model.config().vocab_size;
  const float* data = logits.data().data();

  double total_logprob = 0.0;
  const auto prompt_len = static_cast<std::int64_t>(prompt.size());
  for (std::int64_t pos = prompt_len - 1; pos < total - 1; ++pos) {
    supervisor::heartbeat();
    if (cancel.cancelled()) {
      throw Error(ErrorKind::kTimeout,
                  std::string{"sequence_logprob: "} + cancel.reason());
    }
    const float* row = data + pos * vocab;
    const float max_logit = *std::max_element(row, row + vocab);
    double sum = 0.0;
    for (std::int64_t v = 0; v < vocab; ++v) {
      sum += std::exp(static_cast<double>(row[v] - max_logit));
    }
    const std::int32_t target = ids[static_cast<std::size_t>(pos + 1)];
    total_logprob += static_cast<double>(row[target] - max_logit) - std::log(sum);
  }
  return total_logprob;
}

}  // namespace sdd::nn
