#include "eval/harness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/decode.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace sdd::eval {
namespace {

using data::TokenId;

// Assemble "<bos> [exemplar]* item-context" and truncate exemplars (from the
// front) if the longest option would overflow the context window.
std::vector<TokenId> build_mc_context(const data::McTask& task,
                                      const data::McItem& item, int shots,
                                      std::int64_t max_seq, Rng& rng) {
  std::int64_t longest_option = 0;
  for (const auto& option : item.options) {
    longest_option =
        std::max(longest_option, static_cast<std::int64_t>(option.size()));
  }

  std::vector<std::vector<TokenId>> exemplars;
  for (int s = 0; s < shots && !task.fewshot_pool.empty(); ++s) {
    const data::McItem& shot = task.fewshot_pool[rng.index(task.fewshot_pool.size())];
    std::vector<TokenId> block{shot.context};
    const auto& gold = shot.options[shot.correct];
    block.insert(block.end(), gold.begin(), gold.end());
    exemplars.push_back(std::move(block));
  }

  std::vector<TokenId> context;
  context.push_back(data::Vocab::instance().bos());
  for (;;) {
    std::int64_t total = 1 + static_cast<std::int64_t>(item.context.size()) +
                         longest_option;
    for (const auto& exemplar : exemplars) {
      total += static_cast<std::int64_t>(exemplar.size());
    }
    if (total <= max_seq || exemplars.empty()) break;
    exemplars.erase(exemplars.begin());
  }
  for (const auto& exemplar : exemplars) {
    context.insert(context.end(), exemplar.begin(), exemplar.end());
  }
  context.insert(context.end(), item.context.begin(), item.context.end());
  return context;
}

// Score all options of one item with a single padded batch forward; returns
// the argmax option by mean token log-likelihood.
std::size_t score_mc_item(const nn::TransformerLM& model,
                          const std::vector<TokenId>& context,
                          const std::vector<std::vector<TokenId>>& options) {
  const auto n_options = static_cast<std::int64_t>(options.size());
  const auto context_len = static_cast<std::int64_t>(context.size());
  std::int64_t seq = 0;
  for (const auto& option : options) {
    seq = std::max(seq, context_len + static_cast<std::int64_t>(option.size()));
  }

  const TokenId pad = data::Vocab::instance().pad();
  std::vector<TokenId> ids(static_cast<std::size_t>(n_options * seq), pad);
  for (std::int64_t o = 0; o < n_options; ++o) {
    std::copy(context.begin(), context.end(), ids.begin() + o * seq);
    const auto& option = options[static_cast<std::size_t>(o)];
    std::copy(option.begin(), option.end(), ids.begin() + o * seq + context_len);
  }

  const Tensor logits = model.forward(ids, n_options, seq);
  const std::int64_t vocab = model.config().vocab_size;
  const float* data = logits.data().data();

  double best_score = -1e300;
  std::size_t best_option = 0;
  for (std::int64_t o = 0; o < n_options; ++o) {
    const auto& option = options[static_cast<std::size_t>(o)];
    double total = 0.0;
    for (std::int64_t k = 0; k < static_cast<std::int64_t>(option.size()); ++k) {
      // Position (context_len - 1 + k) predicts option token k.
      const float* row = data + (o * seq + context_len - 1 + k) * vocab;
      const float max_logit = *std::max_element(row, row + vocab);
      double sum = 0.0;
      for (std::int64_t v = 0; v < vocab; ++v) {
        sum += std::exp(static_cast<double>(row[v] - max_logit));
      }
      const TokenId target = option[static_cast<std::size_t>(k)];
      total += static_cast<double>(row[target] - max_logit) - std::log(sum);
    }
    const double normalized = total / static_cast<double>(option.size());
    if (normalized > best_score) {
      best_score = normalized;
      best_option = static_cast<std::size_t>(o);
    }
  }
  return best_option;
}

}  // namespace

TaskResult evaluate_mc(const nn::TransformerLM& model, const data::McTask& task,
                       const EvalOptions& options) {
  NoGradGuard no_grad;
  const int shots = options.shots >= 0 ? options.shots : task.default_shots;
  const auto n = options.max_items >= 0
                     ? std::min<std::int64_t>(options.max_items,
                                              static_cast<std::int64_t>(task.items.size()))
                     : static_cast<std::int64_t>(task.items.size());
  Rng rng{options.seed};

  TaskResult result;
  result.task = task.name;
  result.n_items = n;
  for (std::int64_t i = 0; i < n; ++i) {
    const data::McItem& item = task.items[static_cast<std::size_t>(i)];
    const std::vector<TokenId> context =
        build_mc_context(task, item, shots, model.config().max_seq_len, rng);
    if (score_mc_item(model, context, item.options) == item.correct) {
      ++result.n_correct;
    }
  }
  result.accuracy =
      n > 0 ? static_cast<double>(result.n_correct) / static_cast<double>(n) : 0.0;
  return result;
}

std::vector<data::TokenId> answer_generative(const nn::TransformerLM& model,
                                             std::span<const data::TokenId> prompt,
                                             std::int64_t max_new_tokens) {
  const data::Vocab& vocab = data::Vocab::instance();
  return nn::DecodeSession{model, prompt, {.max_new_tokens = max_new_tokens},
                           {vocab.eos(), vocab.id("q")}}
      .run();
}

TaskResult evaluate_gen(const nn::TransformerLM& model, const data::GenTask& task,
                        const EvalOptions& options) {
  NoGradGuard no_grad;
  const data::Vocab& vocab = data::Vocab::instance();
  const int shots = options.shots >= 0 ? options.shots : task.default_shots;
  const auto n = options.max_items >= 0
                     ? std::min<std::int64_t>(options.max_items,
                                              static_cast<std::int64_t>(task.items.size()))
                     : static_cast<std::int64_t>(task.items.size());
  Rng rng{options.seed};

  TaskResult result;
  result.task = task.name;
  result.n_items = n;
  for (std::int64_t i = 0; i < n; ++i) {
    const data::GenItem& item = task.items[static_cast<std::size_t>(i)];

    std::vector<TokenId> prompt;
    prompt.push_back(vocab.bos());
    std::vector<std::vector<TokenId>> exemplars;
    for (int s = 0; s < shots && !task.fewshot_pool.empty(); ++s) {
      const data::GenItem& shot =
          task.fewshot_pool[rng.index(task.fewshot_pool.size())];
      std::vector<TokenId> block{shot.prompt};
      block.insert(block.end(), shot.reference.begin(), shot.reference.end());
      exemplars.push_back(std::move(block));
    }
    // Keep room for the generation budget.
    constexpr std::int64_t kGenBudget = 40;
    for (;;) {
      std::int64_t total = 1 + static_cast<std::int64_t>(item.prompt.size()) +
                           kGenBudget;
      for (const auto& exemplar : exemplars) {
        total += static_cast<std::int64_t>(exemplar.size());
      }
      if (total <= model.config().max_seq_len || exemplars.empty()) break;
      exemplars.erase(exemplars.begin());
    }
    for (const auto& exemplar : exemplars) {
      prompt.insert(prompt.end(), exemplar.begin(), exemplar.end());
    }
    prompt.insert(prompt.end(), item.prompt.begin(), item.prompt.end());

    const std::vector<TokenId> response =
        answer_generative(model, prompt, kGenBudget);
    const auto extracted = data::last_number(vocab, response);
    if (extracted.has_value() && *extracted == item.answer) ++result.n_correct;
  }
  result.accuracy =
      n > 0 ? static_cast<double>(result.n_correct) / static_cast<double>(n) : 0.0;
  return result;
}

}  // namespace sdd::eval
