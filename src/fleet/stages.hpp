// SDD pipeline stages wired through the fleet: the production task executor
// run inside worker processes, plus orchestrator-side entry points that fan
// an eval suite or a distillation grid out across workers and assemble
// results byte-identically to the single-process path.
//
// Task kinds (TaskSpec fields["kind"]):
//
//   eval_cell     one (model, benchmark task) evaluation. The worker loads
//                 the checkpointed model, evaluates the named task, and
//                 publishes a checksummed metric artifact ("SDDMTRC1") at
//                 fields["out"]. A torn or corrupt result is rejected by the
//                 orchestrator's validator (checksum re-read) and requeued.
//
//   distill_cell  one self-distilled dataset cell. The worker constructs a
//                 Pipeline from the orchestrator's PipelineConfig, which the
//                 task carries as "config.<path>" fields, and the artifact
//                 lands in the shared experiment cache, where the
//                 orchestrator validates it via a checksummed load.
//
// eval_cell carries its SuiteSpec the same way, as "spec.<path>" fields.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/suite.hpp"
#include "fleet/orchestrator.hpp"

namespace sdd::fleet {

// Production executor for worker processes; dispatches on fields["kind"].
// Throws (failing the task against its retry budget) on any error.
void execute_task(const TaskSpec& task);

// The eval_cell task that evaluates `task` on the checkpoint at `model_path`
// and publishes its metric at `out`.
TaskSpec eval_cell(const std::string& task, const std::filesystem::path& model_path,
                   const std::filesystem::path& out, const eval::SuiteSpec& spec,
                   std::uint64_t world_seed);

// Checksummed metric artifact (magic "SDDMTRC1") written by eval_cell
// workers. read_metric throws SerializeError on a missing, torn, or corrupt
// file — the orchestrator treats that as "result not published".
void write_metric(const std::filesystem::path& path,
                  const eval::TaskResult& result);
eval::TaskResult read_metric(const std::filesystem::path& path);

// Fleet-parallel eval::evaluate_suite. With fleet disabled this IS
// evaluate_suite; with workers the per-task cells run in worker processes
// and the scores are assembled in serial task order (same floating-point
// accumulation), so the result is byte-identical either way. The queue
// directory is derived from (weight hash, spec hash, tasks, world seed)
// under `work_root`, so re-running after an orchestrator crash resumes and
// completed cells are reused. Throws Error{kWorkerLost} when cells were
// quarantined (the grid is incomplete).
eval::SuiteScores run_eval_suite(const nn::TransformerLM& model,
                                 const data::World& world,
                                 const std::vector<std::string>& tasks,
                                 const eval::SuiteSpec& spec,
                                 const FleetConfig& fleet,
                                 const std::filesystem::path& work_root,
                                 FleetStats* stats_out = nullptr);

// Fleet-parallel distilled-dataset grid over (dataset name, size) cells.
// The base (teacher) model is trained/loaded in the orchestrator BEFORE
// workers spawn so they all hit the cache instead of racing to pretrain.
// Returns the datasets in cell order (loaded through the shared cache).
std::vector<data::SftDataset> run_distill_grid(
    core::Pipeline& pipeline,
    const std::vector<std::pair<std::string, std::int64_t>>& cells,
    const FleetConfig& fleet, FleetStats* stats_out = nullptr);

}  // namespace sdd::fleet
