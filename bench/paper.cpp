// The paper's experiments as one table: `paper <experiment...|all>`.
//
// Each row of kExperiments names one table, figure or ablation of the paper
// (see the experiment index in DESIGN.md), or one of the walkthroughs of
// the method, and holds the function that builds its models through
// core::Pipeline and prints its table, ASCII chart or histogram. Every eval
// goes through fleet::run_eval_suite, the eval memo under
// `<SDD_CACHE_DIR>/fleet/`, so rows reuse each other's scores and
// SDD_FLEET_WORKERS > 0 fans the missing eval cells out to worker processes
// with byte-identical output. Models, datasets and scores are all cached, so
// `all` runs the rows in an order where the later rows reuse the earlier
// ones' work.
//
// Scale knobs (DESIGN.md §5): SDD_SIZE_8K / SDD_SIZE_15K / SDD_SIZE_50K map
// the paper's dataset sizes to ours; SDD_EVAL_ITEMS / SDD_EVAL_GEN_ITEMS set
// the items per eval task; the PipelineConfig::standard() variables
// (`sdd_cli info`) set the model and training.
//
// Exit status: 0 when every row ran; with one row, a failure exits with its
// error kind's code (util/error.hpp); with several, 1 when any failed. 64 on
// an unknown experiment name or a malformed SDD_* value.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "core/quant.hpp"
#include "core/sparsify.hpp"
#include "core/width_prune.hpp"
#include "eval/embedding.hpp"
#include "eval/flops.hpp"
#include "eval/report.hpp"
#include "fleet/stages.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/signals.hpp"
#include "util/table.hpp"

using namespace sdd;

namespace {

using Cells = std::vector<std::string>;
using Model = nn::TransformerLM;
using core::FtMethod;

// ---- shared pieces ---------------------------------------------------------

// Paper sample counts (thousands) -> repo-scale counts (DESIGN.md §5).
std::int64_t scaled_size(std::int64_t paper_thousands) {
  switch (paper_thousands) {
    case 8:
      return env_int("SDD_SIZE_8K", 480);
    case 15:
      return env_int("SDD_SIZE_15K", 900);
    case 50:
      return env_int("SDD_SIZE_50K", 1600);
    default:
      return paper_thousands * 60;  // generic: 60 samples per paper-thousand
  }
}

// Our 16-layer model mirrors the paper's 32-layer Llama3.1-8B at half the
// block size: ours n <-> paper 2n (identical depth fraction).
std::string block_label(std::int64_t ours) {
  return std::to_string(ours) + " / " + std::to_string(2 * ours);
}

std::string pct(double fraction) { return format_float(fraction * 100.0); }

std::string recovery(const eval::SuiteScores& scores,
                     const eval::SuiteScores& baseline) {
  return format_float(eval::recovery_percent(scores, baseline)) + "%";
}

// Concatenated header or row cells.
Cells cells(std::initializer_list<Cells> parts) {
  Cells out;
  for (const Cells& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

// The paper's column names for the suite's tasks.
Cells task_headers(const std::vector<std::string>& tasks) {
  Cells out;
  for (const std::string& task : tasks) {
    out.push_back(task == "arc_c"        ? "ARC-C"
                  : task == "hellaswag"  ? "HellaSwag"
                  : task == "truthfulqa" ? "TruthfulQA"
                  : task == "mmlu"       ? "MMLU"
                  : task == "winogrande" ? "Winogrande"
                  : task == "gsm8k"      ? "GSM8k"
                                         : task);
  }
  return out;
}

// A suite table row: `labels`, each of `tasks`' accuracy, the average and
// the recovery against `baseline`.
Cells suite_row(Cells labels, const eval::SuiteScores& scores,
                const eval::SuiteScores& baseline,
                const std::vector<std::string>& tasks = {}) {
  for (const std::string& task : tasks) labels.push_back(pct(scores.task(task)));
  labels.push_back(pct(scores.average));
  labels.push_back(recovery(scores, baseline));
  return labels;
}

eval::SuiteSpec standard_spec() {
  eval::SuiteSpec spec;
  spec.mc_items = env_int("SDD_EVAL_ITEMS", 60);
  spec.gen_items = env_int("SDD_EVAL_GEN_ITEMS", 60);
  return spec;
}

// One row's pipeline and its evals through the eval memo.
struct Lab {
  explicit Lab(core::PipelineConfig config = core::PipelineConfig::standard())
      : pipeline{std::move(config)} {}

  eval::SuiteScores suite(const Model& model, const std::vector<std::string>& tasks) {
    return fleet::run_eval_suite(model, pipeline.world(), tasks, spec, fleet,
                                 pipeline.cache().directory() / "fleet");
  }
  eval::SuiteScores core_suite(const Model& model) {
    return suite(model, eval::core_tasks());
  }
  Model sdd(std::int64_t block, const std::string& dataset, std::int64_t size) {
    return pipeline.recovered(block, FtMethod::kSelfDataDistill, dataset, size);
  }
  Model no_ft(std::int64_t block) {
    return pipeline.recovered(block, FtMethod::kNone, "", 0);
  }

  core::Pipeline pipeline;
  eval::SuiteSpec spec = standard_spec();
  fleet::FleetConfig fleet = fleet::FleetConfig::from_env();
};

void print_table(const char* title, const TablePrinter& table) {
  std::printf("== %s ==\n\n%s\n", title, table.to_ascii().c_str());
}

// A '#' bar of `fill` cells padded to `width`.
std::string bar(int fill, int width) {
  std::string s(static_cast<std::size_t>(std::max(fill, 0)), '#');
  s.resize(static_cast<std::size_t>(width), ' ');
  return s;
}

constexpr core::ImportanceMetric kMetrics[] = {
    core::ImportanceMetric::kAngularCosine, core::ImportanceMetric::kBlockInfluence,
    core::ImportanceMetric::kRelativeMagnitude};

// ---- T1, T2: the paper's tables ----------------------------------------------

// Paper Table 1 average recovery (%) at block sizes 4, 6, 8, 10.
constexpr double kPaperTable1Recovery[4][4] = {
    {92.31, 74.67, 70.50, 66.83},  // No FT
    {84.52, 81.66, 76.37, 68.56},  // SFT
    {93.29, 91.24, 86.38, 80.56},  // Self-Data Distillation
    {94.86, 93.30, 88.24, 80.70},  // Self-Data Distillation + MM
};

// T1: the OpenLLM-v1 suite for pruned models across block sizes {4,6,8,10}
// (ours {2,3,4,5}) and methods {No FT, SFT, SDD, SDD + SLERP merge with the
// Alpaca SDD model}, on OpenMathInstruct-50k, with parameter savings.
void table1() {
  Lab lab;
  core::Pipeline& pipeline = lab.pipeline;
  const std::int64_t size_50k = scaled_size(50);
  const auto& tasks = eval::openllm_v1_tasks();
  const Model& base = pipeline.base_model();
  const eval::SuiteScores baseline = lab.suite(base, tasks);

  TablePrinter table{cells({{"Prune Block (ours/paper)", "Savings", "Method", "Dataset"},
                            task_headers(tasks), {"Avg", "Recovery"}})};
  Cells baseline_row =
      suite_row({"baseline", "-", "No FT", "-"}, baseline, baseline, tasks);
  baseline_row.back() = "-";
  table.add_row(std::move(baseline_row));
  table.add_separator();

  struct Method {
    std::string label;
    std::string dataset;
    std::function<Model(std::int64_t)> make;
  };
  const std::vector<Method> methods{
      {"No FT", "-", [&](std::int64_t n) { return lab.no_ft(n); }},
      {"SFT", "openmathinstruct",
       [&](std::int64_t n) {
         return pipeline.recovered(n, FtMethod::kSft, "openmathinstruct", size_50k);
       }},
      {"Self-Data Distillation", "openmathinstruct",
       [&](std::int64_t n) { return lab.sdd(n, "openmathinstruct", size_50k); }},
      {"Self-Data Distillation + MM", "openmathinstruct + alpaca",
       [&](std::int64_t n) {
         return pipeline.merged(n, "openmathinstruct", size_50k, "alpaca", size_50k);
       }},
  };

  std::vector<Cells> shape_rows;
  for (const Method& method : methods) shape_rows.push_back({method.label});
  eval::ExperimentReport report{"table1", "OpenLLM-v1 grid with model merging"};
  report.set_baseline(baseline);
  for (std::int64_t block = 2; block <= 5; ++block) {
    nn::ModelConfig pruned_config = base.config();
    pruned_config.n_layers = base.n_layers() - block;
    const double savings = eval::param_savings(base.config(), pruned_config);
    for (std::size_t m = 0; m < methods.size(); ++m) {
      log_info("table1: block=", block, " method=", methods[m].label);
      const eval::SuiteScores scores = lab.suite(methods[m].make(block), tasks);
      const double measured = eval::recovery_percent(scores, baseline);
      shape_rows[m].push_back(
          format_float(measured) + "% (paper " +
          format_float(kPaperTable1Recovery[m][block - 2]) + "%)");
      report.add({"block" + std::to_string(block) + "/" + methods[m].label,
                  methods[m].label, block, methods[m].dataset, 0, scores, measured});
      table.add_row(suite_row({block_label(block), m == 0 ? format_percent(savings) : "",
                               methods[m].label, methods[m].dataset},
                              scores, baseline, tasks));
    }
    table.add_separator();
  }

  const auto report_path = pipeline.cache().directory() / "table1_report.json";
  report.write(report_path);
  print_table("Table 1: OpenLLM-v1 suite, pruned Llama-style model", table);
  std::printf("(JSON report: %s)\n\n", report_path.c_str());
  TablePrinter shape{{"Method", "n=2 (ours) / paper n=4", "n=3 / 6", "n=4 / 8",
                      "n=5 / 10"}};
  for (Cells& row : shape_rows) shape.add_row(std::move(row));
  print_table("Avg. recovery, measured vs paper", shape);
}

struct Dataset {
  std::string name;
  std::int64_t size;
  std::string label;
};

// T2 (Appendix B): {ARC-C, GSM8k, MMLU} for every prune block size {2..10}
// (ours {1..5}) x fine-tuning dataset x {No FT, SFT, SDD}.
void table2() {
  Lab lab;
  core::Pipeline& pipeline = lab.pipeline;
  const auto& tasks = eval::core_tasks();
  const std::vector<Dataset> datasets{
      {"gsm8k", scaled_size(8), "gsm8k (8k)"},
      {"dolly", scaled_size(15), "dolly (15k)"},
      {"alpaca", scaled_size(50), "alpaca (50k)"},
      {"openmathinstruct", scaled_size(50), "openmathinstruct (50k)"},
  };
  const eval::SuiteScores baseline = lab.suite(pipeline.base_model(), tasks);

  eval::ExperimentReport report{"table2",
                                "core suite across datasets, blocks, and methods"};
  report.set_baseline(baseline);
  TablePrinter table{cells({{"Block (ours/paper)", "Method", "Dataset"},
                            task_headers(tasks), {"Avg", "Recovery"}})};
  table.add_row(suite_row({"baseline", "No FT", "-"}, baseline, baseline, tasks));
  table.add_separator();

  const auto add_row = [&](std::int64_t block, const std::string& method,
                           const std::string& dataset, const Model& model) {
    const eval::SuiteScores scores = lab.suite(model, tasks);
    table.add_row(
        suite_row({block_label(block), method, dataset}, scores, baseline, tasks));
    report.add({"block" + std::to_string(block) + "/" + method + "/" + dataset, method,
                block, dataset, 0, scores, eval::recovery_percent(scores, baseline)});
  };
  for (std::int64_t block = 1; block <= 5; ++block) {
    log_info("table2: block=", block, " no-ft");
    add_row(block, "No FT", "-", lab.no_ft(block));
    for (const Dataset& dataset : datasets) {
      log_info("table2: block=", block, " dataset=", dataset.name);
      add_row(block, "SFT", dataset.label,
              pipeline.recovered(block, FtMethod::kSft, dataset.name, dataset.size));
      add_row(block, "Self-Data Distillation", dataset.label,
              lab.sdd(block, dataset.name, dataset.size));
    }
    table.add_separator();
  }

  const auto report_path = pipeline.cache().directory() / "table2_report.json";
  report.write(report_path);
  print_table("Table 2: core reasoning suite across datasets and block sizes", table);
  std::printf("(JSON report: %s)\n\n", report_path.c_str());
  std::printf(
      "Paper shape to verify: Self-Data Distillation > SFT at every (block, "
      "dataset); the 50k OpenMathInstruct rows recover the most (95.96%% at paper "
      "block 6); recovery decreases monotonically with block size.\n");
}

// ---- F1-F3: the paper's figures -----------------------------------------------

// F1: average OpenLLM-v1 recovery vs prune block size for {No FT, SFT,
// Self-Data FT} on OpenMathInstruct, as a table and an ASCII chart.
void figure1() {
  Lab lab;
  const auto& tasks = eval::openllm_v1_tasks();
  const std::int64_t size_50k = scaled_size(50);
  const eval::SuiteScores baseline = lab.suite(lab.pipeline.base_model(), tasks);

  const std::pair<const char*, FtMethod> methods[] = {
      {"No FT", FtMethod::kNone},
      {"SFT", FtMethod::kSft},
      {"Self-Data FT", FtMethod::kSelfDataDistill},
  };
  constexpr std::int64_t kBlocks = 5;
  double measured[3][kBlocks];
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::int64_t block = 1; block <= kBlocks; ++block) {
      log_info("fig1: ", methods[m].first, " block=", block);
      const eval::SuiteScores scores = lab.suite(
          lab.pipeline.recovered(block, methods[m].second, "openmathinstruct", size_50k),
          tasks);
      measured[m][block - 1] = eval::recovery_percent(scores, baseline);
    }
  }

  TablePrinter table{{"Prune block (ours/paper)", "No FT", "SFT", "Self-Data FT"}};
  for (std::int64_t b = 0; b < kBlocks; ++b) {
    Cells row{block_label(b + 1)};
    for (std::size_t m = 0; m < 3; ++m) row.push_back(format_float(measured[m][b]) + "%");
    table.add_row(std::move(row));
  }
  print_table("Figure 1: avg recovery vs prune block size (OpenLLM v1)", table);

  // ASCII chart: one column per block size, rows 100%..40%.
  std::printf("  recovery%%  (N = No FT, S = SFT, D = Self-Data FT)\n");
  for (int level = 100; level >= 40; level -= 5) {
    std::printf("  %3d | ", level);
    for (std::int64_t b = 0; b < kBlocks; ++b) {
      char cell[4] = {' ', ' ', ' ', '\0'};
      for (std::size_t m = 0; m < 3; ++m) {
        if (measured[m][b] >= level && measured[m][b] < level + 5) cell[m] = "NSD"[m];
      }
      std::printf("%s  ", cell);
    }
    std::printf("\n");
  }
  std::printf("      +-");
  for (std::int64_t b = 0; b < kBlocks; ++b) std::printf("-----");
  std::printf("\n        ");
  for (std::int64_t b = 1; b <= kBlocks; ++b) std::printf("n=%lld  ", (long long)b);
  std::printf("\n\nPaper shape: Self-Data FT dominates SFT at every block size; the\n"
              "gap widens as more layers are pruned (paper: 91.2%% vs 81.7%% at n=6).\n");
}

// F2a/F2b: per-layer angular-cosine and Block Influence importance, and the
// block-distance curves Algorithm 1 minimizes for every block size.
void figure2_metrics() {
  core::Pipeline pipeline{core::PipelineConfig::standard()};
  const Model& base = pipeline.base_model();
  const auto& calibration = pipeline.calibration();

  const auto print_curve = [&](const char* title, core::ImportanceMetric metric) {
    const auto curve = core::layer_importance(base, calibration, metric);
    const double max_value = *std::max_element(curve.begin(), curve.end());
    std::printf("%s", title);
    for (std::size_t l = 0; l < curve.size(); ++l) {
      const int fill =
          max_value > 0.0 ? static_cast<int>(curve[l] / max_value * 30 + 0.5) : 0;
      std::printf("  layer %2zu  %.4f  |%s|\n", l, curve[l], bar(fill, 30).c_str());
    }
  };
  print_curve("== Figure 2 (left): angular cosine distance per layer ==\n\n",
              core::ImportanceMetric::kAngularCosine);
  print_curve("\n== Figure 2 (center): Block Influence (BI) score per layer ==\n\n",
              core::ImportanceMetric::kBlockInfluence);

  std::printf(
      "\n== Block-distance curves d(h^l, h^{l+n}) and Algorithm 1 argmin ==\n\n");
  TablePrinter table{{"block size n", "metric", "argmin l*", "min distance",
                      "curve (per start l)"}};
  for (std::int64_t n = 1; n <= 5; ++n) {
    for (const auto metric : {core::ImportanceMetric::kAngularCosine,
                              core::ImportanceMetric::kBlockInfluence}) {
      const core::BlockDistanceCurve curve =
          core::compute_block_distances(base, calibration, n, metric);
      std::string curve_str;
      for (double d : curve.distances) {
        if (!curve_str.empty()) curve_str += ' ';
        curve_str += format_float(d, 3);
      }
      table.add_row({std::to_string(n), core::metric_name(metric),
                     std::to_string(curve.best_start),
                     format_float(curve.best_distance, 4), curve_str});
    }
  }
  std::printf("%s\n", table.to_ascii().c_str());
  std::printf(
      "Paper shape: both metrics produce similar curves with the minimum in the\n"
      "middle-to-late layers, so both select comparable pruning blocks (§3).\n");
}

// F2c: distribution of sentence-embedding similarity between the pruned
// models' and the baseline's generations on µGSM8k, SFT vs Self-Data FT, at
// block 3 (≙ paper 6) on OpenMathInstruct-50k. Paper: SDD mean 0.92 with a
// tight spread, SFT 0.83 with a wide one.
void figure2_embedding() {
  constexpr std::int64_t kBlock = 3;
  constexpr std::int64_t kItems = 80;
  Lab lab;
  const std::int64_t size_50k = scaled_size(50);
  const Model& baseline = lab.pipeline.base_model();
  const Model sft_model = lab.pipeline.recovered(kBlock, FtMethod::kSft,
                                                 "openmathinstruct", size_50k);
  const Model sdd_model = lab.sdd(kBlock, "openmathinstruct", size_50k);
  const data::GenTask task = data::make_gsm8k_eval_task(kItems, 515);

  log_info("fig2c: embedding generations (", kItems, " prompts x 2 models)");
  const eval::SimilarityStats sft_stats =
      eval::embedding_shift(sft_model, baseline, baseline, task, kItems);
  const eval::SimilarityStats sdd_stats =
      eval::embedding_shift(sdd_model, baseline, baseline, task, kItems);

  std::printf("== Figure 2 (right): embedding similarity to baseline generations "
              "(µGSM8k, block %lld ≙ paper 6) ==\n\n",
              static_cast<long long>(kBlock));
  for (const auto& [label, stats] : {std::pair{"SFT          ", &sft_stats},
                                     std::pair{"Self-Data FT ", &sdd_stats}}) {
    std::printf("%s: mean=%.3f stddev=%.3f min=%.3f max=%.3f (n=%zu)\n", label,
                stats->mean, stats->stddev, stats->min, stats->max,
                stats->values.size());
    const auto hist = stats->histogram(10);
    for (std::size_t bin = 0; bin < hist.size(); ++bin) {
      const double lo = 0.1 * static_cast<double>(bin);
      const auto width = static_cast<std::size_t>(hist[bin] * 50 + 0.5);
      std::printf("  [%.1f,%.1f) %5.1f%% |%s\n", lo, lo + 0.1, hist[bin] * 100.0,
                  std::string(width, '#').c_str());
    }
    std::printf("\n");
  }
  std::printf("Paper shape: Self-Data FT mean (paper 0.92) > SFT mean (paper 0.83) "
              "with a tighter spread.\n");
  std::printf("Measured: Self-Data FT mean %.3f (stddev %.3f) vs SFT mean %.3f "
              "(stddev %.3f) -> %s\n",
              sdd_stats.mean, sdd_stats.stddev, sft_stats.mean, sft_stats.stddev,
              sdd_stats.mean > sft_stats.mean ? "shape HOLDS" : "shape DIFFERS");
}

// F3: avg(ARC-C, GSM8k, MMLU) per fine-tuning dataset x block size x
// strategy, one panel per dataset as in the paper (the T2 grid).
void figure3() {
  Lab lab;
  core::Pipeline& pipeline = lab.pipeline;
  const std::vector<Dataset> datasets{
      {"gsm8k", scaled_size(8), "GSM8k (8k)"},
      {"openmathinstruct", scaled_size(50), "OpenMathInstruct (50k)"},
      {"dolly", scaled_size(15), "Dolly (15k)"},
      {"alpaca", scaled_size(50), "Alpaca (50k)"},
  };
  const eval::SuiteScores baseline = lab.core_suite(pipeline.base_model());
  std::printf("== Figure 3: avg(ARC-C, GSM8k, MMLU) by dataset x block x strategy "
              "==\n\nbaseline avg: %s\n\n",
              pct(baseline.average).c_str());

  for (const Dataset& dataset : datasets) {
    TablePrinter panel{{"block (ours/paper)", "No FT", "SFT", "Self-Data FT"}};
    for (std::int64_t block = 1; block <= 5; ++block) {
      log_info("fig3: ", dataset.name, " block=", block);
      const auto none = lab.core_suite(lab.no_ft(block));
      const auto sft = lab.core_suite(
          pipeline.recovered(block, FtMethod::kSft, dataset.name, dataset.size));
      const auto sdd = lab.core_suite(lab.sdd(block, dataset.name, dataset.size));
      panel.add_row({block_label(block), pct(none.average), pct(sft.average),
                     pct(sdd.average)});
    }
    std::printf("-- %s --\n%s\n", dataset.label.c_str(), panel.to_ascii().c_str());
  }
  std::printf("Paper shape: Self-Data FT >= SFT >= (usually) No FT in every panel;\n"
              "the OpenMathInstruct (50k) panel shows the largest gains.\n");
}

// ---- A1-A7: ablations ----------------------------------------------------------

// A1 (§3): do angular cosine, Block Influence and relative magnitude pick
// the same pruning blocks, and does the choice matter downstream (No FT)?
void ablation_metrics() {
  Lab lab;
  const Model& base = lab.pipeline.base_model();
  const auto& calibration = lab.pipeline.calibration();

  TablePrinter choice{{"block size n", "angular l*", "block_influence l*",
                       "relative_magnitude l*", "agreement"}};
  int agree_ab = 0, total = 0;
  for (std::int64_t n = 1; n <= 5; ++n) {
    std::vector<std::int64_t> starts;
    for (const auto metric : kMetrics) {
      starts.push_back(
          core::compute_block_distances(base, calibration, n, metric).best_start);
    }
    const bool ab_equal = starts[0] == starts[1];
    agree_ab += ab_equal ? 1 : 0;
    ++total;
    choice.add_row({std::to_string(n), std::to_string(starts[0]),
                    std::to_string(starts[1]), std::to_string(starts[2]),
                    ab_equal && starts[1] == starts[2] ? "all"
                    : ab_equal                         ? "angular=BI"
                                                       : "differ"});
  }
  print_table("A1: pruning-block choice per importance metric", choice);
  std::printf("angular vs BI agreement: %d/%d block sizes\n\n", agree_ab, total);

  const eval::SuiteScores baseline = lab.core_suite(base);
  TablePrinter downstream{{"metric", "pruned layers (n=3)", "avg score", "recovery"}};
  for (const auto metric : kMetrics) {
    const core::PruneResult result = core::prune_model(base, calibration, 3, metric);
    downstream.add_row(suite_row({core::metric_name(metric),
                                  "[" + std::to_string(result.start) + ", " +
                                      std::to_string(result.start + 3) + ")"},
                                 lab.core_suite(result.model), baseline));
  }
  print_table("A1: one-shot pruned (No FT) quality per metric, n=3", downstream);
  std::printf("Paper shape: metrics select similar blocks; downstream quality is\n"
              "comparable, so the cheaper angular metric is preferred.\n");
}

// A2 (§3 / Appendix B): recovery vs distilled-dataset size at block 3.
void ablation_datasize() {
  constexpr std::int64_t kBlock = 3;  // ≙ paper n=6
  Lab lab;
  const eval::SuiteScores baseline = lab.core_suite(lab.pipeline.base_model());
  const std::pair<const char*, std::int64_t> sizes[] = {
      {"2k ≙ paper ~4k", scaled_size(8) / 2},
      {"8k (paper)", scaled_size(8)},
      {"20k-scale", (scaled_size(8) + scaled_size(50)) / 2},
      {"50k (paper)", scaled_size(50)},
  };

  TablePrinter table{{"OpenMathInstruct size", "samples (ours)", "SFT recovery",
                      "Self-Data FT recovery", "SDD - SFT"}};
  for (const auto& [label, size] : sizes) {
    log_info("ablation_datasize: size=", size);
    const double sft = eval::recovery_percent(
        lab.core_suite(lab.pipeline.recovered(kBlock, FtMethod::kSft,
                                              "openmathinstruct", size)),
        baseline);
    const double sdd = eval::recovery_percent(
        lab.core_suite(lab.sdd(kBlock, "openmathinstruct", size)), baseline);
    table.add_row({label, std::to_string(size), format_float(sft) + "%",
                   format_float(sdd) + "%", format_float(sdd - sft) + "pp"});
  }
  std::printf("== A2: dataset-size scaling (block %lld ≙ paper 6) ==\n\n%s\n",
              static_cast<long long>(kBlock), table.to_ascii().c_str());
  std::printf("Paper shape: recovery grows with dataset size; Self-Data FT beats\n"
              "SFT at every size.\n");
}

// A3 (Appendix D): SLERP interpolation sweep between the OpenMathInstruct
// and Alpaca SDD models, per-tensor vs whole-model SLERP vs LERP.
void ablation_merge() {
  constexpr std::int64_t kBlock = 3;
  Lab lab;
  const auto& tasks = eval::core_tasks();
  const std::int64_t size_50k = scaled_size(50);
  const eval::SuiteScores baseline = lab.core_suite(lab.pipeline.base_model());
  const Model math_model = lab.sdd(kBlock, "openmathinstruct", size_50k);
  const Model alpaca_model = lab.sdd(kBlock, "alpaca", size_50k);

  TablePrinter table{cells({{"merge", "t"}, task_headers(tasks), {"avg", "recovery"}})};
  const auto add = [&](const std::string& name, const std::string& t,
                       const Model& model) {
    table.add_row(suite_row({name, t}, lab.core_suite(model), baseline, tasks));
  };
  add("openmathinstruct SDD (t=0 endpoint)", "0.00", math_model);
  for (const float t : {0.25F, 0.5F, 0.75F}) {
    add("SLERP per-tensor", format_float(t, 2),
        core::merge_models(math_model, alpaca_model, t));
  }
  add("alpaca SDD (t=1 endpoint)", "1.00", alpaca_model);
  table.add_separator();
  add("SLERP whole-model", "0.50",
      core::merge_models(math_model, alpaca_model, 0.5F,
                         core::MergeMode::kSlerpWholeModel));
  add("LERP", "0.50",
      core::merge_models(math_model, alpaca_model, 0.5F, core::MergeMode::kLerp));

  std::printf("== A3: SLERP merge sweep (block %lld ≙ paper 6) ==\n\n%s\n",
              static_cast<long long>(kBlock), table.to_ascii().c_str());
  std::printf("Paper shape: the t=0.5 SLERP merge matches or beats the best single\n"
              "parent on average (Table 1 '+ MM' rows).\n");
}

// A4: the teacher's prompt. The paper rewrites as ỹ ~ f(y | c, x, y), with
// the reference in the prompt; the default pipeline conditions on (c, x)
// only. Acceptance rate and downstream recovery of both, at block 3.
void ablation_distill() {
  constexpr std::int64_t kBlock = 3;
  const std::int64_t size = scaled_size(8);

  TablePrinter table{{"teacher conditioning", "acceptance", "avg score", "recovery"}};
  for (const bool condition_on_reference : {false, true}) {
    core::PipelineConfig config = core::PipelineConfig::standard();
    config.distill.condition_on_reference = condition_on_reference;
    Lab lab{config};
    const eval::SuiteScores baseline = lab.core_suite(lab.pipeline.base_model());

    core::DistillStats stats;
    lab.pipeline.distilled_dataset("gsm8k", size, &stats);
    const std::string acceptance =
        stats.total > 0 ? format_float(stats.acceptance_rate() * 100.0) + "%"
                        : "(cached)";
    table.add_row(suite_row({condition_on_reference ? "f(y | c, x, y)  [paper form]"
                                                    : "f(y | c, x)     [default]",
                             acceptance},
                            lab.core_suite(lab.sdd(kBlock, "gsm8k", size)), baseline));
  }

  print_table("A4: teacher-prompt conditioning in self-data distillation", table);
  std::printf(
      "Both variants enforce the conditional-selection rule, so answers are\n"
      "always preserved. Which prompt wins is scale-dependent: an 8B teacher\n"
      "understands a rewrite prompt containing the reference (the paper's\n"
      "form), while a tiny teacher is derailed by the unfamiliar format and\n"
      "falls back to the raw targets (acceptance collapses, recovery drops\n"
      "toward plain SFT). Low acceptance == degenerating to SFT is itself a\n"
      "faithful property of the method.\n");
}

// A5: depth vs FFN-width pruning at matched parameter savings (Shortened
// Llama / LLM-Pruner in the paper's related work), and SDD recovery of both.
void ablation_width_depth() {
  Lab lab;
  core::Pipeline& pipeline = lab.pipeline;
  const std::int64_t size_50k = scaled_size(50);
  const Model& base = pipeline.base_model();
  const eval::SuiteScores baseline = lab.core_suite(base);

  TablePrinter table{{"pruning", "param savings", "method", "avg score", "recovery"}};
  const auto add = [&](const std::string& pruning, double savings,
                       const std::string& method, const Model& model) {
    table.add_row(suite_row({pruning, format_percent(savings), method},
                            lab.core_suite(model), baseline));
  };
  for (const std::int64_t blocks : {2, 3}) {
    nn::ModelConfig depth_config = base.config();
    depth_config.n_layers -= blocks;
    const double depth_savings = eval::param_savings(base.config(), depth_config);
    const std::string depth = "depth n=" + std::to_string(blocks);
    log_info("width_depth: depth n=", blocks);
    add(depth, depth_savings, "No FT", lab.no_ft(blocks));
    add(depth, depth_savings, "Self-Data FT",
        lab.sdd(blocks, "openmathinstruct", size_50k));

    const double fraction = core::width_fraction_matching_depth(base.config(), blocks);
    log_info("width_depth: width fraction=", fraction);
    const core::WidthPruneResult width = core::width_prune_ffn(base, fraction);
    const std::string label = "width " + format_percent(fraction) + " FFN";
    add(label, width.param_savings, "No FT", width.model);

    // SDD recovery of the width-pruned model (LoRA + distilled data).
    Model width_sdd = width.model.clone();
    width_sdd.attach_lora(pipeline.config().lora, /*seed=*/blocks);
    train::sft_train(width_sdd, pipeline.distilled_dataset("openmathinstruct", size_50k),
                     pipeline.config().sft);
    width_sdd.merge_lora();
    add(label, width.param_savings, "Self-Data FT", width_sdd);
    table.add_separator();
  }

  print_table("A5: depth vs width pruning at matched parameter savings", table);
  std::printf("Expected shape (Kim et al. 2024 / paper related work): at matched\n"
              "savings the two structures degrade differently; self-data\n"
              "distillation recovers both (it is pruning-structure agnostic).\n");
}

// A6: recovery strategies at block 3 on OpenMathInstruct: SFT, data replay,
// KD on raw data, SDD and SDD + KD (the paper's future-work recipe, §5).
void ablation_kd() {
  constexpr std::int64_t kBlock = 3;
  Lab lab;
  const auto& tasks = eval::core_tasks();
  const std::int64_t size_50k = scaled_size(50);
  const eval::SuiteScores baseline = lab.core_suite(lab.pipeline.base_model());
  const std::pair<const char*, FtMethod> methods[] = {
      {"No FT", FtMethod::kNone},
      {"SFT", FtMethod::kSft},
      {"SFT + data replay", FtMethod::kSftReplay},
      {"KD (teacher logits)", FtMethod::kKd},
      {"Self-Data FT", FtMethod::kSelfDataDistill},
      {"Self-Data FT + KD", FtMethod::kSelfDataDistillKd},
  };

  TablePrinter table{cells({{"method"}, task_headers(tasks), {"avg", "recovery"}})};
  for (const auto& [label, method] : methods) {
    log_info("ablation_kd: ", label);
    const Model model =
        lab.pipeline.recovered(kBlock, method, "openmathinstruct", size_50k);
    table.add_row(suite_row({label}, lab.core_suite(model), baseline, tasks));
  }
  std::printf("== A6: recovery strategies at block %lld (≙ paper n=6), "
              "openmathinstruct ==\n\n%s\n",
              static_cast<long long>(kBlock), table.to_ascii().c_str());
  std::printf("Paper context: SDD is the contribution; replay is the classic\n"
              "baseline its related work discusses; SDD+KD is its stated future\n"
              "work. Expected: SDD-family >= KD/replay >= SFT.\n");
}

// A7: SDD composed with the compression axes of the paper's conclusion:
// int8/int4 weight quantization and 25%/50% magnitude sparsity.
void ablation_compress() {
  constexpr std::int64_t kBlock = 3;
  Lab lab;
  const Model& base = lab.pipeline.base_model();
  const eval::SuiteScores baseline = lab.core_suite(base);
  const Model sdd = lab.sdd(kBlock, "openmathinstruct", scaled_size(50));

  TablePrinter table{{"model", "compression", "avg score", "recovery"}};
  const auto add = [&](const std::string& name, const std::string& compression,
                       const Model& model) {
    table.add_row(suite_row({name, compression}, lab.core_suite(model), baseline));
  };
  const std::pair<std::string, const Model*> models[] = {
      {"baseline (16L)", &base}, {"pruned n=" + std::to_string(kBlock) + " + SDD", &sdd}};
  for (const auto& [name, model] : models) {
    log_info("ablation_compress: ", name);
    add(name, "fp32", *model);
    for (const int bits : {8, 4}) {
      core::QuantConfig config;
      config.bits = bits;
      core::QuantStats stats;
      const Model quantized = core::quantize_model(*model, config, &stats);
      add(name, "int" + std::to_string(bits) + " (mean err " +
                    format_float(stats.mean_abs_error, 4) + ")",
          quantized);
    }
    for (const double sparsity : {0.25, 0.5}) {
      add(name, format_percent(sparsity, 0) + " sparse",
          core::sparsify_model(*model, sparsity));
    }
    table.add_separator();
  }
  print_table("A7: SDD composed with quantization and sparsity (paper conclusion)",
              table);
  std::printf("Expected shape: int8 is near-lossless, int4 costs noticeably more;\n"
              "moderate sparsity degrades gracefully; the SDD-recovered pruned\n"
              "model tolerates compression similarly to the baseline.\n");
}

// ---- walkthroughs of the method ------------------------------------------------

// The paper's loop in one row: pretrain, prune 3 blocks with Algorithm 1,
// recover with SFT and with self-data distillation, compare on the core suite.
void quickstart() {
  constexpr std::int64_t kBlock = 3;  // ≙ paper n=6
  constexpr std::int64_t kSize = 800;
  const std::string dataset = "openmathinstruct";
  Lab lab;
  lab.spec = eval::SuiteSpec{};
  lab.spec.mc_items = lab.spec.gen_items = 40;

  std::printf("== base model ==\n");
  const Model& base = lab.pipeline.base_model();
  std::printf("layers=%lld params=%lld\n", static_cast<long long>(base.n_layers()),
              static_cast<long long>(base.param_count()));
  std::printf("== prune n=%lld (angular cosine, Algorithm 1) ==\n",
              static_cast<long long>(kBlock));
  const core::PruneResult& prune = lab.pipeline.prune(kBlock);
  std::printf("optimal block: layers [%lld, %lld), distance %.4f\n",
              static_cast<long long>(prune.start),
              static_cast<long long>(prune.start + kBlock), prune.distance);

  const auto& tasks = eval::core_tasks();
  const eval::SuiteScores baseline = lab.core_suite(base);
  TablePrinter table{cells({{"model"}, tasks, {"avg", "recovery"}})};
  table.add_row(suite_row({"baseline (unpruned)"}, baseline, baseline, tasks));
  for (const auto& [name, method] :
       {std::pair{"pruned, no FT", FtMethod::kNone},
        std::pair{"pruned + SFT", FtMethod::kSft},
        std::pair{"pruned + Self-Data FT", FtMethod::kSelfDataDistill}}) {
    table.add_row(suite_row(
        {name},
        lab.core_suite(lab.pipeline.recovered(kBlock, method, dataset, kSize)),
        baseline, tasks));
  }
  std::printf("\n%s\n", table.to_ascii().c_str());
  std::printf("(items per task: %lld; dataset: %s, %lld samples)\n",
              static_cast<long long>(lab.spec.mc_items), dataset.c_str(),
              static_cast<long long>(kSize));
}

// Per-layer importance under all three metrics and Algorithm 1's block
// choice per block size (the data behind Figure 2 left/center).
void prune_explorer() {
  core::Pipeline pipeline{core::PipelineConfig::standard()};
  const Model& base = pipeline.base_model();
  const auto& calibration = pipeline.calibration();
  std::printf("Per-layer importance (lower = more redundant), %lld layers\n\n",
              static_cast<long long>(base.n_layers()));

  std::vector<std::vector<double>> curves;
  for (const auto metric : kMetrics) {
    curves.push_back(core::layer_importance(base, calibration, metric));
  }
  TablePrinter table{{"layer", "angular", "", "block_influence", "rel_magnitude"}};
  const double max_angular =
      std::max(0.0, *std::max_element(curves[0].begin(), curves[0].end()));
  for (std::size_t l = 0; l < curves[0].size(); ++l) {
    const int fill =
        max_angular > 0.0 ? static_cast<int>(curves[0][l] / max_angular * 28) : 0;
    table.add_row({std::to_string(l), format_float(curves[0][l], 4), bar(fill, 28),
                   format_float(curves[1][l], 4), format_float(curves[2][l], 4)});
  }
  std::printf("%s\n", table.to_ascii().c_str());

  std::printf("Algorithm 1 block selection per prune block size:\n\n");
  TablePrinter blocks{{"block size n", "paper n (32-layer)", "optimal start l*",
                       "pruned layers", "angular distance"}};
  for (std::int64_t n = 1; n <= 5; ++n) {
    const core::PruneResult& result = pipeline.prune(n);
    blocks.add_row({std::to_string(n), std::to_string(2 * n),
                    std::to_string(result.start),
                    "[" + std::to_string(result.start) + ", " +
                        std::to_string(result.start + n) + ")",
                    format_float(result.distance, 4)});
  }
  std::printf("%s\n", blocks.to_ascii().c_str());
}

// What self-data distillation does to a dataset: original targets vs the
// teacher's rewrites, and the conditional-selection statistics (§2.2).
void distill_inspector() {
  constexpr std::int64_t kSize = 40;
  constexpr std::int64_t kShow = 6;
  const std::string dataset = "gsm8k";
  core::Pipeline pipeline{core::PipelineConfig::standard()};
  const data::Vocab& vocab = data::Vocab::instance();

  const data::SftDataset raw = pipeline.raw_dataset(dataset, kSize);
  core::DistillStats stats;
  const data::SftDataset distilled = core::self_distill_dataset(
      pipeline.base_model(), raw, pipeline.config().distill, &stats);

  std::printf("dataset: %s (%lld examples)\n", dataset.c_str(),
              static_cast<long long>(kSize));
  std::printf("teacher rewrites accepted: %lld/%lld (%.1f%%), fallbacks: %lld\n\n",
              static_cast<long long>(stats.accepted),
              static_cast<long long>(stats.total), stats.acceptance_rate() * 100.0,
              static_cast<long long>(stats.fallback));
  for (std::size_t i = 0; i < kShow; ++i) {
    const data::SftExample& original = raw.examples[i];
    const data::SftExample& rewritten = distilled.examples[i];
    std::printf("--- example %zu %s\n", i,
                original.target != rewritten.target ? "(teacher rewrite accepted)"
                                                    : "(fallback to original target)");
    std::printf("prompt   : %s\n", vocab.decode(original.prompt).c_str());
    std::printf("original : %s\n", vocab.decode(original.target).c_str());
    std::printf("distilled: %s\n\n", vocab.decode(rewritten.target).c_str());
  }
}

// SLERP merging of two SDD models (§4, Appendix D): a t sweep and LERP.
void merge_lab() {
  constexpr std::int64_t kBlock = 3;
  constexpr std::int64_t kSize = 800;
  Lab lab;
  lab.spec = eval::SuiteSpec{};
  lab.spec.mc_items = lab.spec.gen_items = 40;

  std::printf("Fine-tuning the two parents (cached if already run)...\n");
  const Model math_model = lab.sdd(kBlock, "openmathinstruct", kSize);
  const Model alpaca_model = lab.sdd(kBlock, "alpaca", kSize);
  const eval::SuiteScores baseline = lab.core_suite(lab.pipeline.base_model());

  TablePrinter table{{"model", "t", "avg score", "recovery"}};
  const auto add = [&](const std::string& name, const Model& model,
                       const std::string& t) {
    table.add_row(suite_row({name, t}, lab.core_suite(model), baseline));
  };
  add("SDD openmathinstruct", math_model, "-");
  add("SDD alpaca", alpaca_model, "-");
  table.add_separator();
  for (const float t : {0.25F, 0.5F, 0.75F}) {
    add("SLERP merge", core::merge_models(math_model, alpaca_model, t),
        format_float(t, 2));
  }
  add("LERP merge",
      core::merge_models(math_model, alpaca_model, 0.5F, core::MergeMode::kLerp), "0.50");
  std::printf("\n%s\n", table.to_ascii().c_str());
}

// ---- the experiment table ------------------------------------------------------

struct Experiment {
  std::string_view name;
  std::string_view what;
  void (*run)();
};

// In `all` order: the table grids first, so the figures and ablations find
// their models and scores cached.
constexpr Experiment kExperiments[] = {
    {"T2", "Table 2: datasets x blocks x methods (JSON report)", table2},
    {"T1", "Table 1: OpenLLM v1 grid + model savings (JSON report)", table1},
    {"F1", "Figure 1: recovery vs block size", figure1},
    {"F2ab", "Figure 2 left/center: importance curves", figure2_metrics},
    {"F2c", "Figure 2 right: embedding-shift histograms", figure2_embedding},
    {"F3", "Figure 3: per-dataset panels", figure3},
    {"A1", "§3 importance-metric ablation", ablation_metrics},
    {"A2", "§3/App. B dataset-size scaling", ablation_datasize},
    {"A3", "App. D SLERP sweep + LERP baseline", ablation_merge},
    {"A4", "teacher-prompt conditioning", ablation_distill},
    {"A5", "depth vs width pruning, matched savings", ablation_width_depth},
    {"A6", "SFT vs replay vs KD vs SDD vs SDD+KD", ablation_kd},
    {"A7", "SDD + int8/int4 quantization + sparsity", ablation_compress},
    {"quickstart", "the paper's loop on one block size", quickstart},
    {"prune_explorer", "importance curves and Algorithm 1 choices", prune_explorer},
    {"distill_inspector", "original vs teacher-rewritten targets", distill_inspector},
    {"merge_lab", "SLERP merge sweep of two SDD models", merge_lab},
};

void usage() {
  std::fprintf(stderr, "usage: paper <experiment...|all>\n\n");
  for (const Experiment& row : kExperiments) {
    std::fprintf(stderr, "  %-18.*s %.*s\n", static_cast<int>(row.name.size()),
                 row.name.data(), static_cast<int>(row.what.size()), row.what.data());
  }
}

// Several rows: each runs under a banner, a failure is reported and the
// next row runs, and a summary closes the run.
int run_rows(const std::vector<const Experiment*>& rows) {
  std::vector<std::string> summary;
  std::size_t failed = 0;
  for (const Experiment* row : rows) {
    std::printf("==============================================================\n"
                "== %.*s\n"
                "==============================================================\n",
                static_cast<int>(row->name.size()), row->name.data());
    std::fflush(stdout);
    std::string verdict = "PASS  ";
    try {
      row->run();
    } catch (const config::EnvError&) {
      throw;  // a malformed setting fails every row alike
    } catch (const std::exception& e) {
      std::fprintf(stderr, "paper %.*s: %s\n", static_cast<int>(row->name.size()),
                   row->name.data(), e.what());
      verdict = "FAIL  ";
      ++failed;
    }
    std::fflush(stdout);
    summary.push_back(verdict + std::string{row->name});
  }
  std::printf("==============================================================\n"
              "== summary\n"
              "==============================================================\n");
  for (const std::string& line : summary) std::printf("%s\n", line.c_str());
  std::printf("-- %zu/%zu experiments passed\n", rows.size() - failed, rows.size());
  return failed > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // First SIGTERM/SIGINT flips a flag observed at the next heartbeat (exit
  // 72 after a clean unwind); a second one hard-exits 128+signo.
  signals::install_graceful_shutdown();
  try {
    if (argc >= 2 && std::string_view{argv[1]} == "fleet-worker") {
      return fleet::worker_command(argc, argv);
    }
    std::vector<const Experiment*> rows;
    for (int i = 1; i < argc; ++i) {
      const std::string_view name = argv[i];
      const auto before = rows.size();
      for (const Experiment& row : kExperiments) {
        if (name == "all" || name == row.name) rows.push_back(&row);
      }
      if (rows.size() == before) {
        std::fprintf(stderr, "paper: unknown experiment '%s'\n", argv[i]);
        usage();
        return 64;
      }
    }
    if (rows.empty()) {
      usage();
      return 64;
    }
    if (rows.size() == 1) {
      rows[0]->run();
      return 0;
    }
    return run_rows(rows);
  } catch (const config::EnvError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s%s\n", e.what(), e.retryable() ? " (retryable)" : "");
    return error_kind_exit_code(e.kind());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
