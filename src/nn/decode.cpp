#include "nn/decode.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

std::vector<std::int32_t> generate(const TransformerLM& model,
                                   std::span<const std::int32_t> prompt,
                                   const GenerateOptions& options) {
  if (prompt.empty()) throw std::invalid_argument("generate: empty prompt");
  NoGradGuard no_grad;
  Rng rng{options.seed};

  auto state = model.make_decode_state();
  supervisor::heartbeat();
  if (options.cancel.cancelled()) return {};
  // Batched prefill: one span pass streams each weight row once for the
  // whole prompt (bitwise-identical to per-token decode_step), and only the
  // final row, which predicts the first generated token, goes through the
  // LM head.
  std::vector<float> logits = model.prefill(state, prompt);

  std::vector<std::int32_t> generated;
  const std::int64_t budget =
      std::min(options.max_new_tokens,
               model.config().max_seq_len - static_cast<std::int64_t>(prompt.size()));
  for (std::int64_t i = 0; i < budget; ++i) {
    supervisor::heartbeat();
    fault::on_decode_token();
    if (options.cancel.cancelled()) break;
    const std::int32_t next = sample_token(logits, options.temperature, rng);
    if (next == options.stop_token) break;
    generated.push_back(next);
    if (i + 1 < budget) logits = model.decode_step(state, next);
  }
  return generated;
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
