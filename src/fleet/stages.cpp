#include "fleet/stages.hpp"

#include <map>
#include <optional>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"
#include "util/supervisor.hpp"

namespace sdd::fleet {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMetricMagic = "SDDMTRC1";
constexpr std::uint32_t kMetricVersion = 1;

// A config crosses to a worker as task fields, one "<prefix><path>" field
// per row in its text form.
template <typename T>
void put_config(TaskSpec& task, const std::string& prefix, const T& config) {
  config::walk(config, [&](const std::string& path, const config::Field&,
                           const auto& member, config::Role) {
    task.fields[prefix + path] = config::format(member);
  });
}

// Throws std::invalid_argument on a field the config does not have or a
// malformed value.
template <typename T>
T take_config(const TaskSpec& task, const std::string& prefix) {
  T config;
  for (const auto& [key, value] : task.fields) {
    if (key.starts_with(prefix)) config::set(config, key.substr(prefix.size()), value);
  }
  return config;
}

// The memo entry at `path` when it reads back through its checksum and
// names `task`; a torn, corrupt or misnamed entry is quarantined.
std::optional<eval::TaskResult> read_memo(const fs::path& path,
                                          const std::string& task) {
  if (!fs::exists(path)) return std::nullopt;
  try {
    eval::TaskResult result = read_metric(path);
    if (result.task == task) return result;
    log_warn("fleet: memo entry ", path.string(), " names task '", result.task,
             "', not '", task, "'");
  } catch (const SerializeError& e) {
    log_warn("fleet: memo entry ", path.string(), " failed validation: ", e.what());
  }
  quarantine_artifact(path);
  return std::nullopt;
}

void execute_eval_cell(const TaskSpec& task) {
  const nn::TransformerLM model = nn::TransformerLM::load(task.field("model"));
  std::uint64_t world_seed = 0;
  config::parse(task.field("world_seed"), world_seed);
  const eval::TaskResult result = eval::evaluate_named_task(
      model, data::World{world_seed}, task.field("task"),
      take_config<eval::SuiteSpec>(task, "spec."));
  write_metric(task.field("out"), result);
}

// The worker runs the orchestrator's own PipelineConfig, carried in the
// task, so the cell computes exactly the artifact the orchestrator's
// pipeline would, into the shared cache.
void execute_distill_cell(const TaskSpec& task) {
  core::Pipeline pipeline{take_config<core::PipelineConfig>(task, "config.")};
  pipeline.distilled_dataset(task.field("dataset"), task.field_int("size"));
}

// Keys an eval grid's queue directory and, for one task, its memo entry.
std::uint64_t eval_key(std::uint64_t weight_hash, const eval::SuiteSpec& spec,
                       std::uint64_t world_seed, const std::vector<std::string>& tasks) {
  std::uint64_t key = hash_combine(weight_hash, spec.hash());
  key = hash_combine(key, fnv1a_value(world_seed));
  for (const std::string& task : tasks) key = hash_combine(key, fnv1a(task));
  return key;
}

}  // namespace

void execute_task(const TaskSpec& task) {
  const std::string& kind = task.field("kind");
  if (kind == "eval_cell") {
    execute_eval_cell(task);
  } else if (kind == "distill_cell") {
    execute_distill_cell(task);
  } else {
    throw Error(ErrorKind::kFatal,
                "fleet: unknown task kind '" + kind + "' in '" + task.id + "'");
  }
}

TaskSpec eval_cell(const std::string& task, const fs::path& model_path,
                   const fs::path& out, const eval::SuiteSpec& spec,
                   std::uint64_t world_seed) {
  TaskSpec cell;
  cell.id = "eval_" + task;
  cell.fields["kind"] = "eval_cell";
  cell.fields["task"] = task;
  cell.fields["model"] = model_path.string();
  cell.fields["out"] = out.string();
  put_config(cell, "spec.", spec);
  cell.fields["world_seed"] = config::format(world_seed);
  return cell;
}

void write_metric(const fs::path& path, const eval::TaskResult& result) {
  BinaryWriter writer{path};
  writer.write_magic(kMetricMagic, kMetricVersion);
  writer.write_string(result.task);
  writer.write_f64(result.accuracy);
  writer.write_i64(result.n_items);
  writer.write_i64(result.n_correct);
  writer.flush();
}

eval::TaskResult read_metric(const fs::path& path) {
  BinaryReader reader{path};
  reader.expect_magic(kMetricMagic, kMetricVersion);
  eval::TaskResult result;
  result.task = reader.read_string();
  result.accuracy = reader.read_f64();
  result.n_items = reader.read_i64();
  result.n_correct = reader.read_i64();
  return result;
}

fs::path memo_path(const fs::path& root, std::uint64_t weight_hash,
                   const eval::SuiteSpec& spec, std::uint64_t world_seed,
                   const std::string& task) {
  return root / "memo" /
         (hash_hex(eval_key(weight_hash, spec, world_seed, {task})) + ".metric");
}

eval::SuiteScores run_eval_suite(const nn::TransformerLM& model,
                                 const data::World& world,
                                 const std::vector<std::string>& tasks,
                                 const eval::SuiteSpec& spec,
                                 const FleetConfig& fleet,
                                 const fs::path& work_root,
                                 FleetStats* stats_out) {
  const fs::path root =
      fleet.dir_override.empty() ? work_root : fleet.dir_override;
  const std::uint64_t weight_hash = model.weight_hash();
  std::vector<fs::path> entries;
  std::vector<std::optional<eval::TaskResult>> results;
  std::vector<std::size_t> missing;
  for (const std::string& task : tasks) {
    entries.push_back(memo_path(root, weight_hash, spec, world.seed(), task));
    results.push_back(read_memo(entries.back(), task));
    if (!results.back()) missing.push_back(results.size() - 1);
  }
  FleetStats stats;
  stats.reused = static_cast<std::int64_t>(tasks.size() - missing.size());
  if (!missing.empty()) fs::create_directories(root / "memo");

  if (!fleet.enabled()) {
    for (const std::size_t i : missing) {
      supervisor::heartbeat();  // liveness signal when run under a watchdog
      results[i] = eval::evaluate_named_task(model, world, tasks[i], spec);
      // Memoizing is an optimization: a failed store only costs a rerun.
      try {
        write_metric(entries[i], *results[i]);
      } catch (const Error& e) {
        log_warn("fleet: memo entry ", entries[i].string(), " not stored: ", e.what());
      }
    }
  } else if (!missing.empty()) {
    // The queue directory is keyed by everything that determines the grid,
    // so an orchestrator restart finds the same directory and resumes.
    const fs::path dir =
        root / ("eval_" + hash_hex(eval_key(weight_hash, spec, world.seed(), tasks)));
    fs::create_directories(dir);

    // Checkpoint the model once for all workers. Same run key ⇒ same
    // weights, so an artifact left by a previous (possibly crashed) run is
    // reusable — a torn save is impossible (BinaryWriter publishes
    // atomically).
    const fs::path model_path = dir / "model.bin";
    if (!fs::exists(model_path)) model.save(model_path);

    std::vector<TaskSpec> cells;
    for (const std::size_t i : missing) {
      cells.push_back(eval_cell(tasks[i], model_path, entries[i], spec, world.seed()));
    }
    // A published result only counts once its memo entry re-reads through
    // the checksum and names the right task — a torn or corrupt write is
    // requeued.
    const ValidateFn validate = [](const TaskSpec& cell) {
      return read_memo(cell.field("out"), cell.field("task")).has_value();
    };
    const std::int64_t hits = stats.reused;
    stats = orchestrate(dir, cells, fleet, validate);
    stats.reused += hits;
    if (stats.dead > 0) {
      if (stats_out != nullptr) *stats_out = stats;
      throw Error(ErrorKind::kWorkerLost,
                  "fleet: eval grid incomplete: " + std::to_string(stats.dead) +
                      " cell(s) quarantined in " + (dir / "dead").string());
    }
    for (const std::size_t i : missing) results[i] = read_metric(entries[i]);
  }
  if (stats_out != nullptr) *stats_out = stats;

  // Assemble in serial task order with the identical floating-point
  // accumulation evaluate_suite uses, so memoized, fleet and serial runs
  // produce byte-identical scores.
  eval::SuiteScores scores;
  double total = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    scores.tasks.emplace_back(tasks[i], results[i]->accuracy);
    total += results[i]->accuracy;
  }
  scores.average =
      tasks.empty() ? 0.0 : total / static_cast<double>(tasks.size());
  return scores;
}

std::vector<data::SftDataset> run_distill_grid(
    core::Pipeline& pipeline,
    const std::vector<std::pair<std::string, std::int64_t>>& cells,
    const FleetConfig& fleet, FleetStats* stats_out) {
  std::vector<data::SftDataset> datasets;
  if (!fleet.enabled()) {
    for (const auto& [name, size] : cells) {
      datasets.push_back(pipeline.distilled_dataset(name, size));
    }
    return datasets;
  }

  // Train (or load) the teacher before any worker spawns: workers then hit
  // the cached base model instead of racing to pretrain it.
  pipeline.base_model();

  // The cells carry the whole config, run fields too, so a resumed grid
  // never executes another run's settings.
  std::uint64_t run_key =
      fnv1a(config::to_text(pipeline.config()), fnv1a("distill-grid"));
  for (const auto& [name, size] : cells) {
    run_key = hash_combine(run_key, pipeline.distilled_key(name, size));
  }
  const fs::path base = fleet.dir_override.empty()
                            ? pipeline.config().cache_dir / "fleet"
                            : fleet.dir_override;
  const fs::path dir = base / ("distill_" + hash_hex(run_key));

  std::vector<TaskSpec> specs;
  for (const auto& [name, size] : cells) {
    TaskSpec cell;
    cell.id = "distill_" + name + "_" + std::to_string(size);
    cell.fields["kind"] = "distill_cell";
    cell.fields["dataset"] = name;
    cell.fields["size"] = std::to_string(size);
    put_config(cell, "config.", pipeline.config());
    specs.push_back(std::move(cell));
  }

  // The artifact lands in the shared experiment cache; validation is a
  // checksummed load (load_dataset quarantines a corrupt file itself and
  // reports a miss, which rejects the result and requeues the cell).
  const ValidateFn validate = [&pipeline](const TaskSpec& cell) {
    const std::uint64_t key = pipeline.distilled_key(
        cell.field("dataset"), cell.field_int("size"));
    return pipeline.cache().load_dataset(key).has_value();
  };

  const FleetStats stats = orchestrate(dir, specs, fleet, validate);
  if (stats_out != nullptr) *stats_out = stats;
  if (stats.dead > 0) {
    throw Error(ErrorKind::kWorkerLost,
                "fleet: distill grid incomplete: " + std::to_string(stats.dead) +
                    " cell(s) quarantined in " + (dir / "dead").string());
  }
  for (const auto& [name, size] : cells) {
    datasets.push_back(pipeline.distilled_dataset(name, size));  // cache hit
  }
  return datasets;
}

int worker_command(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  const auto flag = [&](const std::string& name) -> const std::string& {
    const auto it = flags.find("--" + name);
    if (it == flags.end()) {
      throw Error(ErrorKind::kFatal, "fleet-worker: missing --" + name);
    }
    return it->second;
  };
  FleetConfig config;
  config::parse(flag("lease"), config.lease_ms);
  config::parse(flag("retry"), config.task_retry);
  config::parse(flag("poll"), config.poll_ms);
  std::int64_t orchestrator = 0;
  config::parse(flag("orchestrator"), orchestrator);
  try {
    return worker_main(flag("dir"), flag("worker"), config, execute_task,
                       orchestrator);
  } catch (const Error& e) {
    // The orchestrator SIGTERMs its idle workers at the end of every run: a
    // graceful stop (exit 72), not a failure worth an error line.
    if (e.kind() != ErrorKind::kInterrupted) throw;
    log_info("fleet-worker: ", e.what());
    return error_kind_exit_code(ErrorKind::kInterrupted);
  }
}

}  // namespace sdd::fleet
