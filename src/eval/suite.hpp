// Benchmark suites mirroring the paper's evaluation:
//   - OpenLLM-v1 suite (Table 1): ARC-C, HellaSwag, TruthfulQA, MMLU,
//     Winogrande, GSM8k
//   - core reasoning suite (Table 2 / Figure 3): ARC-C, GSM8k, MMLU
// plus the average-score and recovery-% aggregation used throughout.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/world.hpp"
#include "eval/harness.hpp"
#include "nn/transformer.hpp"

namespace sdd::eval {

#define SDD_SUITE_FIELDS(X)                                                   \
  X(std::int64_t, mc_items, 60, kKey, "items per multiple-choice task")     \
  X(std::int64_t, gen_items, 60, kKey, "items for µGSM8k")                  \
  X(std::uint64_t, task_seed, 2025, kKey, "task item sampling seed")        \
  X(EvalOptions, options, {}, kKey, "harness options")

struct SuiteSpec {
  SDD_CONFIG_FIELDS(SDD_SUITE_FIELDS)

  std::uint64_t hash() const { return config::hash(*this); }
};

struct SuiteScores {
  // Task name -> accuracy, in suite order.
  std::vector<std::pair<std::string, double>> tasks;
  double average = 0.0;

  double task(const std::string& name) const;
};

// Task name lists for the two suites (fixed order, matches the paper tables).
const std::vector<std::string>& openllm_v1_tasks();  // 6 tasks
const std::vector<std::string>& core_tasks();        // arc_c, gsm8k, mmlu

// Evaluate a named task ("arc_c", "hellaswag", "truthfulqa", "mmlu",
// "winogrande", "gsm8k").
TaskResult evaluate_named_task(const nn::TransformerLM& model,
                               const data::World& world, const std::string& task,
                               const SuiteSpec& spec);

SuiteScores evaluate_suite(const nn::TransformerLM& model, const data::World& world,
                           const std::vector<std::string>& tasks,
                           const SuiteSpec& spec);

// Recovery % relative to the baseline (paper: avg pruned / avg baseline).
double recovery_percent(const SuiteScores& model_scores,
                        const SuiteScores& baseline_scores);

// Canonical text digest of a suite run, one "metric <task> <accuracy>" line
// per task plus "metric average ...", accuracies at %.10f (the soak digest
// format). Byte-for-byte comparable: the fleet soak asserts a fleet run's
// digest is identical to the serial run's.
std::string format_suite_digest(const SuiteScores& scores);

}  // namespace sdd::eval
