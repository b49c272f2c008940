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
//                 fields["out"], its entry in the eval memo. A torn or
//                 corrupt result is rejected by the orchestrator's validator
//                 (checksum re-read) and requeued.
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

// Where the eval memo keeps the result of `task` on weights `weight_hash`
// under `spec` and world seed `world_seed`: one SDDMTRC1 artifact in
// `<root>/memo/`.
std::filesystem::path memo_path(const std::filesystem::path& root,
                                std::uint64_t weight_hash,
                                const eval::SuiteSpec& spec,
                                std::uint64_t world_seed, const std::string& task);

// eval::evaluate_suite through the eval memo, the one store of eval results.
// The memo lives under the fleet work root (`fleet.dir_override`, else
// `work_root`). A task whose entry reads back through its checksum and names
// the task is not evaluated again; a torn or corrupt entry is quarantined
// (`<entry>.corrupt`) and recomputed. Missing tasks are evaluated in this
// process with the fleet disabled, and otherwise as eval_cell tasks in
// worker processes that publish into the memo; memo hits count as `reused`
// in the stats. Scores are assembled in serial task order with
// evaluate_suite's floating-point accumulation, so the result is
// byte-identical either way. The queue directory is derived from (weight
// hash, spec hash, tasks, world seed), so re-running after an orchestrator
// crash resumes it. Throws Error{kWorkerLost} when cells were quarantined
// (the grid is incomplete).
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

// The `fleet-worker` subcommand that spawn_worker (fleet/orchestrator.cpp)
// starts: `<program> fleet-worker --dir D --worker W --lease MS --retry N
// --poll MS --orchestrator PID`, i.e. worker_main with execute_task. Every
// program that runs eval or distill grids dispatches argv[1] ==
// "fleet-worker" here. Returns the exit code, 72 after a graceful stop.
int worker_command(int argc, char** argv);

}  // namespace sdd::fleet
