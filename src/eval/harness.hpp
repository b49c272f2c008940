// Evaluation harness following lm-eval-harness conventions:
//   - multiple-choice tasks: k-shot prompt, options scored by
//     length-normalized log-likelihood of the continuation (acc_norm)
//   - generative tasks: k-shot prompt, greedy decode, exact match on the
//     extracted final answer
#pragma once

#include <cstdint>
#include <string>

#include "data/evalset.hpp"
#include "nn/transformer.hpp"

namespace sdd::eval {

#define SDD_EVAL_OPTION_FIELDS(X)                                             \
  X(int, shots, -1, kKey, "few-shot exemplars; -1 = task default")          \
  X(std::int64_t, max_items, -1, kKey, "items scored; -1 = all")            \
  X(std::uint64_t, seed, 3407, kKey, "few-shot exemplar sampling seed")

struct EvalOptions {
  SDD_CONFIG_FIELDS(SDD_EVAL_OPTION_FIELDS)
};

struct TaskResult {
  std::string task;
  double accuracy = 0.0;
  std::int64_t n_items = 0;
  std::int64_t n_correct = 0;
};

TaskResult evaluate_mc(const nn::TransformerLM& model, const data::McTask& task,
                       const EvalOptions& options = {});

TaskResult evaluate_gen(const nn::TransformerLM& model, const data::GenTask& task,
                        const EvalOptions& options = {});

// Greedy-decode a response for one generative item: a DecodeSession that
// stops at <eos>, at the start of a new "q" turn, or after `max_new_tokens`.
std::vector<data::TokenId> answer_generative(const nn::TransformerLM& model,
                                             std::span<const data::TokenId> prompt,
                                             std::int64_t max_new_tokens = 40);

}  // namespace sdd::eval
