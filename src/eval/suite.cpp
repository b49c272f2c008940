#include "eval/suite.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/supervisor.hpp"

namespace sdd::eval {

double SuiteScores::task(const std::string& name) const {
  for (const auto& [task_name, accuracy] : tasks) {
    if (task_name == name) return accuracy;
  }
  throw std::invalid_argument("SuiteScores: no task named " + name);
}

const std::vector<std::string>& openllm_v1_tasks() {
  static const std::vector<std::string> tasks{
      "arc_c", "hellaswag", "truthfulqa", "mmlu", "winogrande", "gsm8k"};
  return tasks;
}

const std::vector<std::string>& core_tasks() {
  static const std::vector<std::string> tasks{"arc_c", "gsm8k", "mmlu"};
  return tasks;
}

TaskResult evaluate_named_task(const nn::TransformerLM& model,
                               const data::World& world, const std::string& task,
                               const SuiteSpec& spec) {
  if (task == "gsm8k") {
    const data::GenTask gen_task =
        data::make_gsm8k_eval_task(spec.gen_items, spec.task_seed);
    return evaluate_gen(model, gen_task, spec.options);
  }
  data::McTask mc_task;
  if (task == "arc_c") {
    mc_task = data::make_arc_task(world, spec.mc_items, spec.task_seed);
  } else if (task == "hellaswag") {
    mc_task = data::make_hellaswag_task(world, spec.mc_items, spec.task_seed);
  } else if (task == "truthfulqa") {
    mc_task = data::make_truthfulqa_task(world, spec.mc_items, spec.task_seed);
  } else if (task == "mmlu") {
    mc_task = data::make_mmlu_task(world, spec.mc_items, spec.task_seed);
  } else if (task == "winogrande") {
    mc_task = data::make_winogrande_task(world, spec.mc_items, spec.task_seed);
  } else {
    throw std::invalid_argument("evaluate_named_task: unknown task " + task);
  }
  return evaluate_mc(model, mc_task, spec.options);
}

SuiteScores evaluate_suite(const nn::TransformerLM& model, const data::World& world,
                           const std::vector<std::string>& tasks,
                           const SuiteSpec& spec) {
  SuiteScores scores;
  double total = 0.0;
  for (const std::string& task : tasks) {
    supervisor::heartbeat();  // liveness signal when run under a watchdog
    const TaskResult result = evaluate_named_task(model, world, task, spec);
    scores.tasks.emplace_back(task, result.accuracy);
    total += result.accuracy;
  }
  scores.average = tasks.empty() ? 0.0 : total / static_cast<double>(tasks.size());
  return scores;
}

double recovery_percent(const SuiteScores& model_scores,
                        const SuiteScores& baseline_scores) {
  if (baseline_scores.average <= 0.0) {
    throw std::invalid_argument("recovery_percent: baseline average is zero");
  }
  return 100.0 * model_scores.average / baseline_scores.average;
}

std::string format_suite_digest(const SuiteScores& scores) {
  std::string out;
  char buffer[64];
  for (const auto& [name, score] : scores.tasks) {
    std::snprintf(buffer, sizeof(buffer), "%.10f", score);
    out += "metric " + name + ' ' + buffer + '\n';
  }
  std::snprintf(buffer, sizeof(buffer), "%.10f", scores.average);
  out += std::string{"metric average "} + buffer + '\n';
  return out;
}

}  // namespace sdd::eval
