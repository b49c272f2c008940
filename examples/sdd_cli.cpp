// sdd_cli — command-line driver over the public API.
//
//   sdd_cli pretrain
//   sdd_cli prune    --block 3 [--metric angular|bi|relmag] [--out model.bin]
//   sdd_cli distill  --dataset openmathinstruct --size 800
//   sdd_cli recover  --block 3 --method sdd --dataset openmathinstruct
//                    --size 1600 [--out model.bin]
//   sdd_cli merge    --a a.bin --b b.bin [--t 0.5] [--mode slerp|lerp] --out m.bin
//   sdd_cli eval     --model model.bin [--suite core|openllm] [--items 60]
//                    [--out digest.txt]
//   sdd_cli generate --model model.bin --prompt "q : what does the cat say ?"
//   sdd_cli route    --models full.bin,pruned.bin [--names full,p1]
//                    [--quality digest.txt] --prompt "..." [--task gsm8k]
//                    [--count 4] [--deadline 50] [--pin p1] [--max-tokens 48]
//                    [--temperature 0] [--process 1] [--swap p1=new.bin]
//   sdd_cli speculate --target full.bin --drafts p2.bin,p4.bin [--names a,b]
//                    --prompt "..." [--k 4] [--max-tokens 48]
//   sdd_cli info     [--model model.bin]   (no model: the effective
//                    PipelineConfig::standard(), one field per line)
//   sdd_cli fleet-worker --dir <queue dir> --worker <id>   (internal: spawned
//                    by the fleet orchestrator, not meant to be run by hand)
//   sdd_cli replica-worker --model m.bin --name full --fd 3 [--heartbeat 25]
//                    (internal: spawned by the router's RemoteReplica
//                    supervisor when cross-process serving is on)
//
// Cross-process routing: `route --process 1` (or SDD_REPLICA_PROCESS=1)
// hosts each variant in its own `replica-worker` child supervised with
// heartbeat liveness, crash respawn, and breaker quarantine; `--swap
// name=ckpt` performs a rolling upgrade of one variant mid-run and serves
// the batch again on the new weights.
//
// Pipeline-backed subcommands (pretrain/prune/distill/recover) share the
// sdd_cache/ experiment cache with the benches.
//
// Fleet mode: SDD_FLEET_WORKERS=N > 0 makes `eval` (and `distill
// --datasets a,b,...`) fan out across N worker processes through the
// crash-tolerant work queue (src/fleet). Off by default; results are
// byte-identical either way.
//
// SIGTERM/SIGINT request a graceful shutdown: in-flight stages observe the
// flag at their next heartbeat, unwind with Error{interrupted}, and the
// process exits 72 (a second signal hard-exits 128+signo immediately).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "eval/flops.hpp"
#include "eval/suite.hpp"
#include "fleet/stages.hpp"
#include "nn/decode.hpp"
#include "nn/speculative.hpp"
#include "serve/router.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/serialize.hpp"
#include "util/signals.hpp"
#include "util/table.hpp"

using namespace sdd;

namespace {

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got '" + key + "'");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string arg_or(const Args& args, const std::string& key,
                   const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

std::int64_t arg_int(const Args& args, const std::string& key, std::int64_t fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : std::stoll(it->second);
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t end = list.find(',', begin);
    const std::string item =
        list.substr(begin, end == std::string::npos ? end : end - begin);
    if (!item.empty()) out.push_back(item);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

// <bos> text <sep>: a chat-style prompt for generate, route and speculate.
std::vector<data::TokenId> encode_prompt(const std::string& text) {
  const data::Vocab& vocab = data::Vocab::instance();
  std::vector<data::TokenId> prompt{vocab.bos()};
  const auto body = vocab.encode(text);
  prompt.insert(prompt.end(), body.begin(), body.end());
  prompt.push_back(vocab.sep());
  return prompt;
}

core::ImportanceMetric parse_metric(const std::string& name) {
  if (name == "angular") return core::ImportanceMetric::kAngularCosine;
  if (name == "bi") return core::ImportanceMetric::kBlockInfluence;
  if (name == "relmag") return core::ImportanceMetric::kRelativeMagnitude;
  throw std::invalid_argument("unknown metric '" + name + "'");
}

core::FtMethod parse_method(const std::string& name) {
  if (name == "none") return core::FtMethod::kNone;
  if (name == "sft") return core::FtMethod::kSft;
  if (name == "sdd") return core::FtMethod::kSelfDataDistill;
  if (name == "replay") return core::FtMethod::kSftReplay;
  if (name == "kd") return core::FtMethod::kKd;
  if (name == "sdd_kd") return core::FtMethod::kSelfDataDistillKd;
  throw std::invalid_argument("unknown method '" + name + "'");
}

int cmd_pretrain(const Args&) {
  core::Pipeline pipeline{core::PipelineConfig::standard()};
  const nn::TransformerLM& base = pipeline.base_model();
  std::printf("base model ready: %s, %lld params\n",
              base.config().to_string().c_str(),
              static_cast<long long>(base.param_count()));
  return 0;
}

int cmd_prune(const Args& args) {
  core::PipelineConfig config = core::PipelineConfig::standard();
  config.metric = parse_metric(arg_or(args, "metric", "angular"));
  core::Pipeline pipeline{config};
  const std::int64_t block = arg_int(args, "block", 3);
  const core::PruneResult& result = pipeline.prune(block);
  std::printf("pruned layers [%lld, %lld) via %s, distance %.4f\n",
              static_cast<long long>(result.start),
              static_cast<long long>(result.start + block),
              core::metric_name(config.metric).c_str(), result.distance);
  const std::string out = arg_or(args, "out", "");
  if (!out.empty()) {
    result.model.save(out);
    std::printf("saved pruned model to %s\n", out.c_str());
  }
  return 0;
}

int cmd_distill(const Args& args) {
  core::Pipeline pipeline{core::PipelineConfig::standard()};
  // --datasets a,b,c runs a grid of distillation cells, through the fleet
  // when SDD_FLEET_WORKERS > 0 (one worker process per in-flight cell).
  const auto grid_it = args.find("datasets");
  if (grid_it != args.end()) {
    std::vector<std::pair<std::string, std::int64_t>> cells;
    const std::int64_t size = arg_int(args, "size", 800);
    for (const std::string& name : split_csv(grid_it->second)) {
      cells.emplace_back(name, size);
    }
    fleet::FleetStats stats;
    const auto datasets = fleet::run_distill_grid(
        pipeline, cells, fleet::FleetConfig::from_env(), &stats);
    for (const auto& dataset : datasets) {
      std::printf("distilled dataset '%s': %zu examples\n",
                  dataset.name.c_str(), dataset.examples.size());
    }
    std::printf("fleet: %s\n", stats.to_string().c_str());
    return 0;
  }
  core::DistillStats stats;
  const data::SftDataset distilled = pipeline.distilled_dataset(
      arg_or(args, "dataset", "openmathinstruct"), arg_int(args, "size", 800), &stats);
  std::printf("distilled dataset '%s': %zu examples", distilled.name.c_str(),
              distilled.examples.size());
  if (stats.total > 0) {
    std::printf(", acceptance %.1f%%", stats.acceptance_rate() * 100.0);
  } else {
    std::printf(" (loaded from cache)");
  }
  std::printf("\n");
  return 0;
}

int cmd_recover(const Args& args) {
  core::Pipeline pipeline{core::PipelineConfig::standard()};
  const nn::TransformerLM model = pipeline.recovered(
      arg_int(args, "block", 3), parse_method(arg_or(args, "method", "sdd")),
      arg_or(args, "dataset", "openmathinstruct"), arg_int(args, "size", 1600));
  std::printf("recovered model: %lld layers, %lld params\n",
              static_cast<long long>(model.n_layers()),
              static_cast<long long>(model.param_count()));
  const std::string out = arg_or(args, "out", "");
  if (!out.empty()) {
    model.save(out);
    std::printf("saved to %s\n", out.c_str());
  }
  return 0;
}

int cmd_merge(const Args& args) {
  const nn::TransformerLM a = nn::TransformerLM::load(args.at("a"));
  const nn::TransformerLM b = nn::TransformerLM::load(args.at("b"));
  const float t = std::stof(arg_or(args, "t", "0.5"));
  const std::string mode = arg_or(args, "mode", "slerp");
  const nn::TransformerLM merged = core::merge_models(
      a, b, t,
      mode == "lerp" ? core::MergeMode::kLerp : core::MergeMode::kSlerpPerTensor);
  merged.save(args.at("out"));
  std::printf("merged (%s, t=%.2f) -> %s\n", mode.c_str(), t,
              args.at("out").c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  core::Pipeline pipeline{core::PipelineConfig::standard()};
  const std::string path = arg_or(args, "model", "");
  const nn::TransformerLM model =
      path.empty() ? pipeline.base_model().clone() : nn::TransformerLM::load(path);

  eval::SuiteSpec spec;
  spec.mc_items = arg_int(args, "items", 60);
  spec.gen_items = spec.mc_items;
  const auto& tasks = arg_or(args, "suite", "core") == "openllm"
                          ? eval::openllm_v1_tasks()
                          : eval::core_tasks();
  // run_eval_suite memoizes every task's score under the fleet work root;
  // with SDD_FLEET_WORKERS > 0 the missing cells run in worker processes
  // and the assembled scores are byte-identical to the serial run.
  const fleet::FleetConfig fleet_config = fleet::FleetConfig::from_env();
  fleet::FleetStats fleet_stats;
  const auto scores = fleet::run_eval_suite(
      model, pipeline.world(), tasks, spec, fleet_config,
      pipeline.cache().directory() / "fleet", &fleet_stats);
  TablePrinter table{{"task", "accuracy"}};
  for (const auto& [task, accuracy] : scores.tasks) {
    table.add_row({task, format_float(accuracy * 100.0)});
  }
  table.add_separator();
  table.add_row({"average", format_float(scores.average * 100.0)});
  std::printf("%s", table.to_ascii().c_str());
  if (fleet_config.enabled()) {
    std::printf("fleet: %s\n", fleet_stats.to_string().c_str());
  }
  // The canonical digest lets soak scripts byte-compare a fleet run against
  // a serial run without parsing the human-facing table.
  const std::string out = arg_or(args, "out", "");
  if (!out.empty()) {
    atomic_write_text(out, eval::format_suite_digest(scores));
    std::printf("digest written to %s\n", out.c_str());
  }
  return 0;
}

int cmd_generate(const Args& args) {
  const nn::TransformerLM model = nn::TransformerLM::load(args.at("model"));
  const data::Vocab& vocab = data::Vocab::instance();
  const std::vector<data::TokenId> prompt = encode_prompt(args.at("prompt"));

  nn::GenerateOptions options;
  options.max_new_tokens = arg_int(args, "max-tokens", 48);
  options.temperature = std::stof(arg_or(args, "temperature", "0"));
  options.stop_token = vocab.eos();
  const auto output = nn::generate(model, prompt, options);
  std::printf("%s\n", vocab.decode(output).c_str());
  return 0;
}

// Serves one prompt (optionally N times) through a VariantRouter over the
// given model files: quality/deadline-aware variant choice, circuit-breaker
// health, and failover, with a per-replica health table at the end. The
// router knobs come from the SDD_ROUTE_* / SDD_SERVE_* environment
// (RouterConfig::from_env), same as the soaks. With --process 1 (or
// SDD_REPLICA_PROCESS=1) each variant runs in its own supervised
// `replica-worker` child; --swap name=ckpt then exercises a rolling upgrade.
int cmd_route(const Args& args) {
  const std::vector<std::string> paths = split_csv(args.at("models"));
  if (paths.empty()) {
    throw std::invalid_argument("--models needs at least one model file");
  }
  std::vector<std::string> names = split_csv(arg_or(args, "names", ""));
  if (!names.empty() && names.size() != paths.size()) {
    throw std::invalid_argument("--names count must match --models count");
  }

  serve::QualityTable table;
  const std::string quality_path = arg_or(args, "quality", "");
  if (!quality_path.empty()) table = serve::QualityTable::load(quality_path);

  serve::RouterConfig config = serve::RouterConfig::from_env();
  if (arg_int(args, "process", config.cross_process ? 1 : 0) > 0) {
    config.cross_process = true;
  }

  std::vector<serve::VariantSpec> variants;
  variants.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    serve::VariantSpec spec;
    spec.name = i < names.size()
                    ? names[i]
                    : std::filesystem::path{paths[i]}.stem().string();
    if (config.cross_process) {
      // The worker process loads the checkpoint; the parent stays weightless.
      spec.path = paths[i];
    } else {
      spec.model = nn::TransformerLM::load(paths[i]);
    }
    variants.push_back(std::move(spec));
  }
  serve::VariantRouter router{std::move(variants), std::move(config),
                              std::move(table)};

  const data::Vocab& vocab = data::Vocab::instance();
  const std::vector<data::TokenId> prompt = encode_prompt(args.at("prompt"));

  const std::int64_t count = arg_int(args, "count", 1);
  const auto serve_batch = [&](const char* tag) {
    std::vector<serve::RouteTicketPtr> tickets;
    tickets.reserve(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
      serve::RouteRequest route;
      route.request.prompt = prompt;
      route.request.max_new_tokens = arg_int(args, "max-tokens", 48);
      route.request.temperature = std::stof(arg_or(args, "temperature", "0"));
      route.request.stop_token = vocab.eos();
      route.request.seed = static_cast<std::uint64_t>(1234 + i);
      route.request.deadline_ms = arg_int(args, "deadline", 0);
      route.task = arg_or(args, "task", "");
      route.variant = arg_or(args, "pin", "");
      tickets.push_back(router.submit(std::move(route)));
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const serve::RouteResponse& routed = tickets[i]->wait();
      std::printf("[%s%zu] variant=%-12s state=%-9s hops=%lld%s\n", tag, i,
                  routed.variant.empty() ? "-" : routed.variant.c_str(),
                  std::string{serve::request_state_name(routed.response.state)}
                      .c_str(),
                  static_cast<long long>(routed.hops),
                  routed.rerouted ? " (rerouted)" : "");
      if (routed.response.state == serve::RequestState::kCompleted) {
        std::printf("    %s\n", vocab.decode(routed.response.tokens).c_str());
      } else if (!routed.response.message.empty()) {
        std::printf("    %s\n", routed.response.message.c_str());
      }
    }
  };
  serve_batch("");

  // Rolling upgrade: drain one worker, respawn on the new checkpoint, then
  // serve the same batch again so the output reflects the new weights.
  const std::string swap = arg_or(args, "swap", "");
  if (!swap.empty()) {
    const std::size_t eq = swap.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--swap expects name=checkpoint");
    }
    const std::string variant = swap.substr(0, eq);
    const std::string checkpoint = swap.substr(eq + 1);
    serve::Replica* replica = router.replica(variant);
    if (replica == nullptr) {
      throw std::invalid_argument("--swap: unknown variant '" + variant + "'");
    }
    const bool swapped = replica->swap_model(checkpoint, 10000);
    std::printf("swap %s -> %s: %s\n", variant.c_str(), checkpoint.c_str(),
                swapped ? "ok" : "FAILED (local replica or timeout)");
    if (swapped) serve_batch("post-swap ");
  }

  TablePrinter health{{"variant", "health", "dispatched", "completed",
                       "failures", "opens", "probes", "params", "pid",
                       "restarts", "beat-age"}};
  for (const auto& snap : router.replicas()) {
    health.add_row({snap.name,
                    std::string{serve::health_state_name(snap.health)},
                    std::to_string(snap.stats.dispatched),
                    std::to_string(snap.stats.completed),
                    std::to_string(snap.stats.breaker_failures),
                    std::to_string(snap.stats.breaker_opens),
                    std::to_string(snap.stats.probes),
                    std::to_string(snap.cost),
                    snap.remote ? std::to_string(snap.pid) : "-",
                    snap.remote ? std::to_string(snap.restarts) : "-",
                    snap.remote && snap.heartbeat_age_ms >= 0
                        ? std::to_string(snap.heartbeat_age_ms) + "ms"
                        : "-"});
  }
  std::printf("%s", health.to_ascii().c_str());
  const serve::RouterStats stats = router.stats();
  std::printf(
      "router: submitted=%lld completed=%lld failovers=%lld exhausted=%lld\n",
      static_cast<long long>(stats.submitted),
      static_cast<long long>(stats.completed),
      static_cast<long long>(stats.failovers),
      static_cast<long long>(stats.exhausted));
  return 0;
}

// Self-speculative decode sweep: each draft (typically the same model pruned
// at increasing depths) proposes --k tokens per round, the target verifies.
// Reports per-draft acceptance rate and the tokens/sec speedup over the
// target's plain greedy decode, and fails loudly (numeric_divergence, exit
// 76) if any speculative output is not bit-identical to the plain decode —
// the invariant the whole mode rests on.
int cmd_speculate(const Args& args) {
  using SteadyClock = std::chrono::steady_clock;
  const nn::TransformerLM target = nn::TransformerLM::load(args.at("target"));
  const std::vector<std::string> paths = split_csv(args.at("drafts"));
  if (paths.empty()) {
    throw std::invalid_argument("--drafts needs at least one model file");
  }
  std::vector<std::string> names = split_csv(arg_or(args, "names", ""));
  if (!names.empty() && names.size() != paths.size()) {
    throw std::invalid_argument("--names count must match --drafts count");
  }

  const data::Vocab& vocab = data::Vocab::instance();
  const std::vector<data::TokenId> prompt = encode_prompt(args.at("prompt"));

  nn::GenerateOptions options;
  options.max_new_tokens = arg_int(args, "max-tokens", 48);
  options.stop_token = vocab.eos();
  const std::int64_t k = arg_int(args, "k", 4);

  const SteadyClock::time_point plain_start = SteadyClock::now();
  const auto reference = nn::generate(target, prompt, options);
  const double plain_s =
      std::chrono::duration<double>(SteadyClock::now() - plain_start).count();
  const double plain_tps =
      plain_s > 0.0 ? static_cast<double>(reference.size()) / plain_s : 0.0;
  std::printf("target: %lld layers, %zu tokens, %.1f tok/s (plain greedy)\n",
              static_cast<long long>(target.n_layers()), reference.size(),
              plain_tps);

  TablePrinter table{{"draft", "layers", "acceptance", "accepted/proposed",
                      "tok/s", "speedup", "identical"}};
  bool all_identical = true;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const nn::TransformerLM draft = nn::TransformerLM::load(paths[i]);
    const std::string name =
        i < names.size() ? names[i]
                         : std::filesystem::path{paths[i]}.stem().string();
    nn::SpecCounters counters;
    const SteadyClock::time_point start = SteadyClock::now();
    const auto output =
        nn::speculative_generate(target, draft, prompt, options, k, &counters);
    const double spec_s =
        std::chrono::duration<double>(SteadyClock::now() - start).count();
    const double spec_tps =
        spec_s > 0.0 ? static_cast<double>(output.size()) / spec_s : 0.0;
    const bool identical = output == reference;
    all_identical = all_identical && identical;
    table.add_row({name, std::to_string(draft.n_layers()),
                   format_float(counters.acceptance_rate() * 100.0) + "%",
                   std::to_string(counters.accepted) + "/" +
                       std::to_string(counters.proposed),
                   format_float(spec_tps),
                   plain_tps > 0.0 ? format_float(spec_tps / plain_tps) + "x"
                                   : "-",
                   identical ? "yes" : "NO"});
  }
  std::printf("%s", table.to_ascii().c_str());
  if (!all_identical) {
    throw Error(ErrorKind::kNumericDivergence,
                "speculative output diverged from the target's greedy decode");
  }
  return 0;
}

// Internal: one cross-process serving replica, spawned by RemoteReplica with
// its end of the socketpair already inherited as --fd. Exits 0 on a clean
// channel close, 72 after a graceful SIGTERM drain, 71/74/... on typed
// worker errors (the supervisor only needs "died"; the code aids debugging).
int cmd_replica_worker(const Args& args) {
  return serve::replica_worker_main(
      args.at("model"), arg_or(args, "name", "replica"),
      static_cast<int>(std::stoll(args.at("fd"))),
      arg_int(args, "heartbeat", 25));
}

// One "path = value  SDD_NAME  key|run" line per field of the effective
// PipelineConfig::standard() ("-" where no variable binds the field): the
// way to check which SDD_* overrides took effect.
int print_standard_config() {
  std::map<std::string, std::string> names;  // path -> binding variables
  for (const config::EnvBinding& binding : core::kPipelineEnv) {
    std::string& list = names[binding.path];
    list += (list.empty() ? "" : ",") + std::string{binding.env};
  }
  const core::PipelineConfig standard = core::PipelineConfig::standard();
  config::walk(standard,
               [&](const std::string& path, const config::Field&,
                   const auto& member, config::Role role) {
                 const auto it = names.find(path);
                 std::printf("%s = %s  %s  %s\n", path.c_str(),
                             config::format(member).c_str(),
                             it == names.end() ? "-" : it->second.c_str(),
                             role == config::Role::kKey ? "key" : "run");
               });
  return 0;
}

int cmd_info(const Args& args) {
  if (args.find("model") == args.end()) return print_standard_config();
  const nn::TransformerLM model = nn::TransformerLM::load(args.at("model"));
  const nn::ModelConfig& config = model.config();
  std::printf("%s\n", config.to_string().c_str());
  std::printf("parameters : %lld\n", static_cast<long long>(model.param_count()));
  std::printf("flops/token: %lld (context %lld)\n",
              static_cast<long long>(eval::flops_per_token(config, 64)),
              static_cast<long long>(64));
  std::printf("weight hash: %s\n", hash_hex(model.weight_hash()).c_str());
  return 0;
}

void usage() {
  std::printf(
      "usage: sdd_cli "
      "<pretrain|prune|distill|recover|merge|eval|generate|route|speculate|"
      "info|fleet-worker|replica-worker> "
      "[--flag value ...]\n(see the header comment of examples/sdd_cli.cpp)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  // First SIGTERM/SIGINT flips a flag observed at the next heartbeat (exit
  // 72 after a clean unwind); a second one hard-exits 128+signo.
  signals::install_graceful_shutdown();
  const std::string command = argv[1];
  try {
    if (command == "fleet-worker") return fleet::worker_command(argc, argv);
    const Args args = parse_args(argc, argv, 2);
    if (command == "pretrain") return cmd_pretrain(args);
    if (command == "prune") return cmd_prune(args);
    if (command == "distill") return cmd_distill(args);
    if (command == "recover") return cmd_recover(args);
    if (command == "merge") return cmd_merge(args);
    if (command == "eval") return cmd_eval(args);
    if (command == "generate") return cmd_generate(args);
    if (command == "route") return cmd_route(args);
    if (command == "speculate") return cmd_speculate(args);
    if (command == "info") return cmd_info(args);
    if (command == "replica-worker") return cmd_replica_worker(args);
    usage();
    return 2;
  } catch (const config::EnvError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 64;
  } catch (const sdd::Error& e) {
    // Typed taxonomy failures map to stable per-kind exit codes (see
    // util/error.hpp) so scripts can assert on the failure class: transient
    // I/O 75, timeout 74, resource exhausted 69, corrupt artifact 65,
    // numeric divergence 76, worker lost 71, interrupted 72, fatal 70. 64
    // stays reserved for malformed SDD_FAULT specs and SDD_* values, 1 for
    // exceptions outside the taxonomy.
    // what() already leads with the kind name ("corrupt_artifact: ...").
    std::fprintf(stderr, "error: %s%s\n", e.what(),
                 e.retryable() ? " (retryable)" : "");
    return sdd::error_kind_exit_code(e.kind());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
