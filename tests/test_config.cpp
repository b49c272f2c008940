// Configuration-surface tests: the field tables (env bindings, text form,
// cache-key completeness, the docs' env table, `sdd_cli info`), cache-key
// hash sensitivity, and few-shot prompt budgeting.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "data/corpus.hpp"
#include "eval/harness.hpp"
#include "eval/suite.hpp"
#include "fleet/orchestrator.hpp"
#include "serve/router.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"

namespace sdd {
namespace {

TEST(StandardConfig, ReadsEnvironmentOverrides) {
  ::setenv("SDD_LAYERS", "8", 1);
  ::setenv("SDD_DMODEL", "32", 1);
  ::setenv("SDD_SFT_MAX_STEPS", "7", 1);
  const core::PipelineConfig config = core::PipelineConfig::standard();
  EXPECT_EQ(config.model.n_layers, 8);
  EXPECT_EQ(config.model.d_model, 32);
  EXPECT_EQ(config.sft.max_steps, 7);
  ::unsetenv("SDD_LAYERS");
  ::unsetenv("SDD_DMODEL");
  ::unsetenv("SDD_SFT_MAX_STEPS");

  const core::PipelineConfig defaults = core::PipelineConfig::standard();
  EXPECT_EQ(defaults.model.n_layers, 16);
  EXPECT_EQ(defaults.model.vocab_size, data::Vocab::instance().size());
}

TEST(Hashing, ModelConfigSensitivity) {
  nn::ModelConfig a = testing::tiny_config();
  nn::ModelConfig b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.n_layers += 1;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.rope_base = 500.0F;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Hashing, TrainAndDistillConfigSensitivity) {
  train::SftTrainConfig sft_a;
  train::SftTrainConfig sft_b = sft_a;
  EXPECT_EQ(sft_a.hash(), sft_b.hash());
  sft_b.optimizer.lr *= 2.0F;
  EXPECT_NE(sft_a.hash(), sft_b.hash());

  core::DistillConfig distill_a;
  core::DistillConfig distill_b = distill_a;
  distill_b.condition_on_reference = true;
  EXPECT_NE(distill_a.hash(), distill_b.hash());

  core::KdConfig kd_a;
  core::KdConfig kd_b = kd_a;
  kd_b.temperature = 4.0F;
  EXPECT_NE(kd_a.hash(), kd_b.hash());

  nn::LoraConfig lora_a;
  nn::LoraConfig lora_b = lora_a;
  lora_b.rank = 16;
  EXPECT_NE(lora_a.hash(), lora_b.hash());
}

TEST(Hashing, CorpusConfigSensitivity) {
  data::CorpusConfig a;
  data::CorpusConfig b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.myth_rate += 0.1;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.n_documents += 1;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Hashing, BaseKeyChangesWithEveryStage) {
  core::PipelineConfig a;
  a.model = testing::tiny_real_vocab_config(2);
  core::PipelineConfig b = a;
  EXPECT_EQ(a.base_key(), b.base_key());
  b.pretrain.optimizer.lr *= 2.0F;
  EXPECT_NE(a.base_key(), b.base_key());
  b = a;
  b.world_seed += 1;
  EXPECT_NE(a.base_key(), b.base_key());
  b = a;
  b.version += 1;
  EXPECT_NE(a.base_key(), b.base_key());
}

TEST(FewShot, PromptsNeverExceedContextWindow) {
  // Even with an absurd shot request the assembled MC context plus longest
  // option must fit the model's window (exemplars are dropped from the
  // front).
  nn::ModelConfig config = testing::tiny_real_vocab_config(1);
  config.max_seq_len = 48;  // very tight
  const nn::TransformerLM model{config, 71};
  const data::World world{42};
  const data::McTask task = data::make_mmlu_task(world, 6, 3);
  eval::EvalOptions options;
  options.shots = 50;
  EXPECT_NO_THROW(eval::evaluate_mc(model, task, options));
}

TEST(FewShot, GenerativePromptRespectsWindow) {
  nn::ModelConfig config = testing::tiny_real_vocab_config(1);
  config.max_seq_len = 72;
  const nn::TransformerLM model{config, 72};
  const data::GenTask task = data::make_gsm8k_eval_task(4, 7);
  eval::EvalOptions options;
  options.shots = 50;
  EXPECT_NO_THROW(eval::evaluate_gen(model, task, options));
}

TEST(SuiteSpecHash, Sensitivity) {
  eval::SuiteSpec a;
  eval::SuiteSpec b = a;
  EXPECT_EQ(a.hash(), b.hash());
  b.mc_items += 1;
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.options.shots = 1;
  EXPECT_NE(a.hash(), b.hash());
}

// ---- field tables ------------------------------------------------------------

// Every field under `config` as path -> text, paths prefixed with `root`.
template <typename T>
std::map<std::string, std::string> fields_of(const T& config, const std::string& root) {
  std::map<std::string, std::string> fields;
  config::walk(config, [&](const std::string& path, const config::Field&,
                           const auto& member, config::Role) {
    fields[root + path] = config::format(member);
  });
  return fields;
}

// The three env roots as the docs table names their fields.
std::map<std::string, std::string> env_roots() {
  auto fields = fields_of(core::PipelineConfig::standard(), "PipelineConfig.");
  fields.merge(fields_of(serve::RouterConfig::from_env(), "RouterConfig."));
  fields.merge(fields_of(fleet::FleetConfig::from_env(), "FleetConfig."));
  return fields;
}

// env -> the "Root.path" fields it binds.
std::map<std::string, std::set<std::string>> bound_fields() {
  std::map<std::string, std::set<std::string>> bound;
  const auto add = [&](std::span<const config::EnvBinding> list, const std::string& root) {
    for (const config::EnvBinding& b : list) bound[b.env].insert(root + b.path);
  };
  add(core::kPipelineEnv, "PipelineConfig.");
  add(serve::kRouterEnv, "RouterConfig.");
  add(fleet::kFleetEnv, "FleetConfig.");
  return bound;
}

struct EnvCase {
  const char* env;
  const char* value;
  std::map<std::string, std::string> expect;  // changed field -> text
};

// Copied from the PipelineConfig::standard() and from_env() bodies the
// binding lists replaced: every SDD_* name they read, its target field(s)
// and its unit conversion.
const std::vector<EnvCase>& env_cases() {
  static const std::vector<EnvCase> cases{
      {"SDD_DMODEL", "48", {{"PipelineConfig.model.d_model", "48"}}},
      {"SDD_HEADS", "2", {{"PipelineConfig.model.n_heads", "2"}}},
      {"SDD_LAYERS", "8", {{"PipelineConfig.model.n_layers", "8"}}},
      {"SDD_DFF", "96", {{"PipelineConfig.model.d_ff", "96"}}},
      {"SDD_MAX_SEQ", "200", {{"PipelineConfig.model.max_seq_len", "200"}}},
      {"SDD_CORPUS_DOCS", "500", {{"PipelineConfig.corpus.n_documents", "500"}}},
      {"SDD_PRETRAIN_STEPS", "40", {{"PipelineConfig.pretrain.steps", "40"}}},
      {"SDD_PRETRAIN_BATCH", "4", {{"PipelineConfig.pretrain.batch_size", "4"}}},
      {"SDD_PRETRAIN_SEQ", "48", {{"PipelineConfig.pretrain.seq_len", "48"}}},
      {"SDD_PRETRAIN_LR", "0.002", {{"PipelineConfig.pretrain.optimizer.lr", "0.002"}}},
      {"SDD_SFT_EPOCHS", "2", {{"PipelineConfig.sft.epochs", "2"}}},
      {"SDD_SFT_MAX_STEPS", "7", {{"PipelineConfig.sft.max_steps", "7"}}},
      {"SDD_SFT_BATCH", "4", {{"PipelineConfig.sft.batch_size", "4"}}},
      {"SDD_SFT_LR", "0.0005", {{"PipelineConfig.sft.optimizer.lr", "0.0005"}}},
      {"SDD_LORA_RANK", "4", {{"PipelineConfig.lora.rank", "4"}}},
      {"SDD_LORA_ALPHA", "8.5", {{"PipelineConfig.lora.alpha", "8.5"}}},
      {"SDD_DISTILL_MAX_TOKENS", "12", {{"PipelineConfig.distill.max_new_tokens", "12"}}},
      {"SDD_CKPT_EVERY", "7", {{"PipelineConfig.pretrain.checkpoint_every", "7"}}},
      {"SDD_SFT_CKPT_EVERY", "5", {{"PipelineConfig.sft.checkpoint_every", "5"}}},
      {"SDD_NUMERIC_GUARD", "0",
       {{"PipelineConfig.pretrain.numeric_guard", "false"},
        {"PipelineConfig.sft.numeric_guard", "false"}}},
      {"SDD_GRAD_NORM_LIMIT", "1000",
       {{"PipelineConfig.pretrain.grad_norm_limit", "1000"},
        {"PipelineConfig.sft.grad_norm_limit", "1000"}}},
      {"SDD_MAX_ROLLBACKS", "5",
       {{"PipelineConfig.pretrain.max_rollbacks", "5"},
        {"PipelineConfig.sft.max_rollbacks", "5"}}},
      {"SDD_CACHE_DIR", "/tmp/sdd_env_cache", {{"PipelineConfig.cache_dir", "/tmp/sdd_env_cache"}}},
      {"SDD_RETRY_MAX", "1", {{"PipelineConfig.supervise.retry_max", "1"}}},
      {"SDD_BACKOFF_MS", "7", {{"PipelineConfig.supervise.backoff_ms", "7"}}},
      {"SDD_STAGE_DEADLINE_SEC", "3", {{"PipelineConfig.supervise.deadline_ms", "3000"}}},
      {"SDD_STAGE_HANG_SEC", "2",
       {{"PipelineConfig.supervise.hang_ms", "2000"},
        {"RouterConfig.server.worker.hang_ms", "2000"}}},
      {"SDD_ROUTE_FAILOVER_MAX", "5", {{"RouterConfig.failover_max", "5"}}},
      {"SDD_ROUTE_CHEAP_DEADLINE_MS", "90", {{"RouterConfig.cheap_deadline_ms", "90"}}},
      {"SDD_SPEC_DRAFT", "p2", {{"RouterConfig.spec_draft", "p2"}}},
      {"SDD_REPLICA_PROCESS", "1", {{"RouterConfig.cross_process", "true"}}},
      {"SDD_REPLICA_HEARTBEAT_MS", "10", {{"RouterConfig.remote.heartbeat_ms", "10"}}},
      {"SDD_REPLICA_LEASE_MS", "300", {{"RouterConfig.remote.lease_ms", "300"}}},
      {"SDD_REPLICA_RESPAWN_MAX", "3", {{"RouterConfig.remote.respawn_max", "3"}}},
      {"SDD_REPLICA_BACKOFF_MS", "20", {{"RouterConfig.remote.backoff_ms", "20"}}},
      {"SDD_REPLICA_BACKOFF_CAP_MS", "900", {{"RouterConfig.remote.backoff_cap_ms", "900"}}},
      {"SDD_REPLICA_GRACE_MS", "1000", {{"RouterConfig.remote.drain_grace_ms", "1000"}}},
      {"SDD_ROUTE_DEGRADED_FAILS", "2", {{"RouterConfig.breaker.degraded_after", "2"}}},
      {"SDD_ROUTE_BREAKER_FAILS", "4", {{"RouterConfig.breaker.open_after", "4"}}},
      {"SDD_ROUTE_BREAKER_COOLDOWN_MS", "50", {{"RouterConfig.breaker.cooldown_ms", "50"}}},
      {"SDD_ROUTE_PROBE_MAX", "2", {{"RouterConfig.breaker.probe_max", "2"}}},
      {"SDD_SERVE_QUEUE_CAP", "5", {{"RouterConfig.server.queue_capacity", "5"}}},
      {"SDD_SERVE_MAX_BATCH", "3", {{"RouterConfig.server.max_batch", "3"}}},
      {"SDD_SERVE_KV_BUDGET_MB", "2", {{"RouterConfig.server.kv_budget_bytes", "2097152"}}},
      {"SDD_SERVE_DEADLINE_MS", "100", {{"RouterConfig.server.default_deadline_ms", "100"}}},
      {"SDD_SERVE_DEGRADE_DEPTH", "4", {{"RouterConfig.server.degrade_queue_depth", "4"}}},
      {"SDD_SERVE_DEGRADE_MAX_TOKENS", "8",
       {{"RouterConfig.server.degrade_max_new_tokens", "8"}}},
      {"SDD_SERVE_NAN_GUARD", "0", {{"RouterConfig.server.nan_guard", "false"}}},
      {"SDD_SERVE_HANG_MS", "750", {{"RouterConfig.server.worker.hang_ms", "750"}}},
      {"SDD_SPEC_K", "3", {{"RouterConfig.server.spec_k", "3"}}},
      {"SDD_FLEET_WORKERS", "2", {{"FleetConfig.workers", "2"}}},
      {"SDD_FLEET_LEASE_MS", "900", {{"FleetConfig.lease_ms", "900"}}},
      {"SDD_FLEET_TASK_RETRY", "5", {{"FleetConfig.task_retry", "5"}}},
      {"SDD_FLEET_RESPAWN_MAX", "4", {{"FleetConfig.respawn_max", "4"}}},
      {"SDD_FLEET_POLL_MS", "20", {{"FleetConfig.poll_ms", "20"}}},
      {"SDD_FLEET_DIR", "/tmp/sdd_env_fleet", {{"FleetConfig.dir_override", "/tmp/sdd_env_fleet"}}},
  };
  return cases;
}

TEST(ConfigEnv, BindsExactlyTheFiftySixNames) {
  std::set<std::string> expected;
  for (const EnvCase& c : env_cases()) expected.insert(c.env);
  std::set<std::string> bound;
  for (const auto& [env, fields] : bound_fields()) bound.insert(env);
  EXPECT_EQ(expected.size(), 56U);
  EXPECT_EQ(bound, expected);
}

TEST(ConfigEnv, EveryBoundNameSetsItsFieldsAndNothingElse) {
  const auto before = env_roots();
  for (const EnvCase& c : env_cases()) {
    ::setenv(c.env, c.value, 1);
    std::map<std::string, std::string> changed;
    for (const auto& [path, text] : env_roots()) {
      if (before.at(path) != text) changed[path] = text;
    }
    ::unsetenv(c.env);
    EXPECT_EQ(changed, c.expect) << c.env << "=" << c.value;
  }
}

TEST(ConfigEnv, ServeHangMsWinsOverStageHangSec) {
  ::setenv("SDD_STAGE_HANG_SEC", "2", 1);
  ::setenv("SDD_SERVE_HANG_MS", "750", 1);
  EXPECT_EQ(serve::RouterConfig::from_env().server.worker.hang_ms, 750);
  EXPECT_EQ(core::PipelineConfig::standard().supervise.hang_ms, 2000);
  ::unsetenv("SDD_SERVE_HANG_MS");
  ::unsetenv("SDD_STAGE_HANG_SEC");
}

// A malformed value of a bound name throws, naming it, instead of quietly
// falling back to the default; an empty value still means unset.
TEST(ConfigEnv, MalformedValueThrowsNamingTheVariable) {
  for (const auto& [env, value] :
       std::vector<std::pair<const char*, const char*>>{{"SDD_PRETRAIN_STEPS", "4k"},
                                                        {"SDD_SFT_LR", "fast"},
                                                        {"SDD_NUMERIC_GUARD", "2"}}) {
    ::setenv(env, value, 1);
    try {
      core::PipelineConfig::standard();
      ADD_FAILURE() << env << "=" << value << " was accepted";
    } catch (const config::EnvError& e) {
      EXPECT_NE(std::string{e.what()}.find(env), std::string::npos) << e.what();
    }
    ::unsetenv(env);
  }
  ::setenv("SDD_SERVE_KV_BUDGET_MB", "99999999999999", 1);  // overflows once scaled
  EXPECT_THROW(serve::RouterConfig::from_env(), config::EnvError);
  ::unsetenv("SDD_SERVE_KV_BUDGET_MB");
  ::setenv("SDD_FLEET_WORKERS", "-", 1);
  EXPECT_THROW(fleet::FleetConfig::from_env(), std::invalid_argument);
  ::unsetenv("SDD_FLEET_WORKERS");
  ::setenv("SDD_PRETRAIN_STEPS", "", 1);
  EXPECT_EQ(core::PipelineConfig::standard().pretrain.steps, 4000);
  ::unsetenv("SDD_PRETRAIN_STEPS");
}

// The text form reads back to the same fields, reals bit for bit.
TEST(ConfigText, RoundTripsEveryField) {
  core::PipelineConfig config = core::PipelineConfig::standard();
  config.pretrain.optimizer.eps = 1.1754944e-38F;
  config.sft.clip_norm = 0.1F + 0.2F;
  config.replay_ratio = 0.1 + 0.2;
  config.world_seed = ~0ULL;
  config.metric = core::ImportanceMetric::kRelativeMagnitude;
  config.cache_dir = "dir with spaces/=/x";
  core::PipelineConfig back;
  config::apply_text(back, config::to_text(config));
  EXPECT_EQ(config::to_text(back), config::to_text(config));
  EXPECT_EQ(back.sft.clip_norm, config.sft.clip_norm);
  EXPECT_EQ(back.replay_ratio, config.replay_ratio);
  EXPECT_EQ(back.cache_dir, config.cache_dir);
  EXPECT_EQ(config::hash(back.pretrain), config::hash(config.pretrain));

  EXPECT_THROW(config::apply_text(back, "model.d_model"), std::invalid_argument);
  EXPECT_THROW(config::apply_text(back, "model.d_modle=3"), std::invalid_argument);
  EXPECT_THROW(config::apply_text(back, "model.d_model=3.5"), std::invalid_argument);
  EXPECT_THROW(config::apply_text(back, "metric=cosine"), std::invalid_argument);
  config.cache_dir = "two\nlines";
  EXPECT_THROW(config::to_text(config), std::invalid_argument);
}

// Seeded mutation fuzz of the text parser: every mutant applies or throws
// std::invalid_argument, and whatever applied writes back out to text that
// reads back to the same fields.
TEST(ConfigText, MutatedTextAppliesOrThrowsInvalidArgument) {
  const std::string standard = config::to_text(core::PipelineConfig::standard());
  std::vector<std::string> corpus{standard, config::to_text(serve::RouterConfig{})};
  std::istringstream lines{standard};
  for (std::string line; std::getline(lines, line);) corpus.push_back(line);
  Rng rng{0xC0F1};
  std::int64_t applied = 0;
  std::int64_t rejected = 0;
  for (int i = 0; i < 20'000; ++i) {
    const std::string text = testing::mutate_bytes(corpus, rng);
    core::PipelineConfig pipeline;
    serve::RouterConfig router;
    try {
      config::apply_text(pipeline, text);
      core::PipelineConfig back;
      config::apply_text(back, config::to_text(pipeline));
      ASSERT_EQ(config::to_text(back), config::to_text(pipeline)) << text;
      ++applied;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    try {
      config::apply_text(router, text);
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_GT(applied, 500);
  EXPECT_GT(rejected, 1'000);
}

TEST(ConfigHash, DerivedHashesKeepTheHandWrittenValues) {
  nn::ModelConfig model;
  EXPECT_EQ(hash_hex(model.hash()), "40b0cce5e1dea406");
  model.vocab_size = 300;
  model.n_layers = 4;
  EXPECT_EQ(hash_hex(model.hash()), "bbb76f2e86c4de91");
  EXPECT_EQ(hash_hex(data::CorpusConfig{}.hash()), "857e599825dc75ff");
  EXPECT_EQ(hash_hex(nn::LoraConfig{}.hash()), "69247f2765a76530");
  EXPECT_EQ(hash_hex(core::DistillConfig{}.hash()), "dc3be51179133012");
  EXPECT_EQ(hash_hex(core::KdConfig{}.hash()), "cc5d8f48b71c9f0d");
  EXPECT_EQ(hash_hex(train::AdamWConfig{}.hash()), "59fa5725cb434a68");
  EXPECT_EQ(hash_hex(eval::SuiteSpec{}.hash()), "5b91fbd511747f91");
}

// lora_seed() is frozen at the recovered_key() formula LoRA init used
// before the key covered calibration and the whole pretrain config.
TEST(ConfigHash, LoraSeedKeepsTheOldRecoveredKey) {
  core::PipelineConfig config;
  config.model.vocab_size = data::Vocab::instance().size();
  const std::vector<std::pair<core::FtMethod, const char*>> expected{
      {core::FtMethod::kSft, "c2d70f5d3d49a848"},
      {core::FtMethod::kSelfDataDistill, "578ed1c10fdaa510"},
      {core::FtMethod::kSftReplay, "46179b8b436eaf5b"},
      {core::FtMethod::kKd, "82b242eb6a7a5747"},
      {core::FtMethod::kSelfDataDistillKd, "f782fa59452d248f"}};
  for (const auto& [method, seed] : expected) {
    EXPECT_EQ(hash_hex(core::lora_seed(config, 3, method, "gsm8k", 480)), seed)
        << core::method_name(method);
  }
  config.calib_seed += 1;
  config.pretrain.clip_norm *= 2.0F;
  EXPECT_EQ(hash_hex(core::lora_seed(config, 3, core::FtMethod::kSft, "gsm8k", 480)),
            "c2d70f5d3d49a848");
}

template <typename M>
void perturb(M& value) {
  if constexpr (std::is_same_v<M, bool>) {
    value = !value;
  } else if constexpr (std::is_enum_v<M>) {
    value = static_cast<M>((static_cast<std::size_t>(value) + 1) % enum_names(value).size());
  } else if constexpr (std::is_floating_point_v<M>) {
    value = value * 2 + 1;
  } else if constexpr (std::is_arithmetic_v<M>) {
    value = value + 1;
  } else {
    value = M{config::format(value) + "x"};
  }
}

// `config` with the field at `path` perturbed.
template <typename T>
T perturbed(T config, const std::string& path) {
  config::walk(config, [&](const std::string& at, const config::Field&, auto& member,
                           config::Role) {
    if (at == path) perturb(member);
  });
  return config;
}

// Artifacts a PipelineConfig field can feed: the base model, a distilled
// dataset, and the recovered model of each FtMethod, in enum order.
constexpr unsigned kBase = 1U << 0;
constexpr unsigned kDistilled = 1U << 1;
constexpr unsigned kRecNone = 1U << 2;
constexpr unsigned kRecSdd = 1U << 4;
constexpr unsigned kRecReplay = 1U << 5;
constexpr unsigned kRecKd = 1U << 6;
constexpr unsigned kRecSddKd = 1U << 7;
constexpr unsigned kRecFt = 0xF8;  // every method but kNone
constexpr unsigned kRecAll = kRecFt | kRecNone;
constexpr unsigned kAll = kBase | kDistilled | kRecAll;

// Which artifacts each field feeds: the first entry that prefixes the path.
const std::vector<std::pair<std::string, unsigned>>& feeds() {
  static const std::vector<std::pair<std::string, unsigned>> table{
      {"pretrain.log_every", 0},         {"pretrain.checkpoint_", 0},
      {"pretrain.numeric_guard", 0},     {"pretrain.grad_norm_limit", 0},
      {"pretrain.max_rollbacks", 0},     {"sft.log_every", 0},
      {"sft.checkpoint_", 0},            {"sft.numeric_guard", 0},
      {"sft.grad_norm_limit", 0},        {"sft.max_rollbacks", 0},
      {"model.", kAll},                  {"corpus.", kAll},
      {"pretrain.", kAll},               {"world_seed", kAll},
      {"base_seed", kAll},               {"version", kAll},
      {"lora.", kRecFt},                 {"sft.", kRecFt},
      {"dataset_seed", kDistilled | kRecFt},
      {"distill.", kDistilled | kRecSdd | kRecSddKd},
      {"kd.", kRecKd | kRecSddKd},       {"replay_ratio", kRecReplay},
      {"metric", kRecAll},               {"calib_", kRecAll},
      {"cache_dir", 0},                  {"supervise.", 0},
  };
  return table;
}

unsigned keys_changed(const core::PipelineConfig& a, const core::PipelineConfig& b) {
  const auto keys = [](const core::PipelineConfig& config) {
    const core::Pipeline pipeline{config};
    std::vector<std::uint64_t> out{config.base_key(),
                                   pipeline.distilled_key("gsm8k", 32)};
    for (int m = 0; m < 6; ++m) {
      out.push_back(pipeline.recovered_key(2, static_cast<core::FtMethod>(m), "gsm8k", 32));
    }
    return out;
  };
  const std::vector<std::uint64_t> ka = keys(a);
  const std::vector<std::uint64_t> kb = keys(b);
  unsigned changed = 0;
  for (std::size_t i = 0; i < ka.size(); ++i) {
    if (ka[i] != kb[i]) changed |= 1U << i;
  }
  return changed;
}

// Exactly the kKey fields change the keys of exactly the artifacts they
// feed; kRun fields change none.
TEST(ConfigKeys, EveryFieldFeedsExactlyTheArtifactsOfTheTable) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("sdd_keys_" + std::to_string(::getpid()));
  core::PipelineConfig base;
  base.model.vocab_size = data::Vocab::instance().size();
  base.cache_dir = dir / "cache";
  std::int64_t fields = 0;
  config::walk(base, [&](const std::string& path, const config::Field&, const auto&,
                         config::Role role) {
    ++fields;
    const auto rule = std::find_if(feeds().begin(), feeds().end(), [&](const auto& r) {
      return path.rfind(r.first, 0) == 0;
    });
    ASSERT_NE(rule, feeds().end()) << path << " is missing from the table";
    const core::PipelineConfig changed = perturbed(base, path);
    ASSERT_NE(config::to_text(changed), config::to_text(base)) << path;
    EXPECT_EQ(keys_changed(base, changed), rule->second) << path;
    EXPECT_EQ(role == config::Role::kKey, rule->second != 0) << path;
  });
  EXPECT_GT(fields, 70);

  eval::SuiteSpec spec;
  config::walk(spec, [&](const std::string& path, const config::Field&, const auto&,
                         config::Role role) {
    EXPECT_EQ(role, config::Role::kKey) << path;
    EXPECT_NE(perturbed(spec, path).hash(), spec.hash()) << path;  // eval memo + run key
  });
  std::filesystem::remove_all(dir);
}

// docs/reproduction-notes.md is the one env table: each bound variable has
// exactly one row, naming every field it binds, and no row of a config
// field names a variable nothing binds.
TEST(ConfigDocs, ReproductionNotesListEveryBoundVariableOnce) {
  std::ifstream in{std::string{SDD_SOURCE_DIR} + "/docs/reproduction-notes.md"};
  ASSERT_TRUE(in.good());
  const auto bound = bound_fields();
  const std::regex name{"SDD_[A-Z0-9_]+"};
  std::map<std::string, int> rows_naming;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| `SDD_", 0) != 0) continue;
    const std::size_t cell_end = line.find('|', 1);
    const std::string first = line.substr(0, cell_end);
    const bool config_owned = line.find("Config.") != std::string::npos;
    for (std::sregex_iterator it{first.begin(), first.end(), name}, end; it != end; ++it) {
      const std::string env = it->str();
      ++rows_naming[env];
      const auto b = bound.find(env);
      if (config_owned) {
        EXPECT_NE(b, bound.end()) << env << " is bound by nothing";
      }
      if (b == bound.end()) continue;
      for (const std::string& field : b->second) {
        EXPECT_NE(line.find("`" + field + "`"), std::string::npos) << env << " -> " << field;
      }
    }
  }
  for (const auto& [env, fields] : bound) EXPECT_EQ(rows_naming[env], 1) << env;
}

#if defined(SDD_CLI_PATH) && !defined(__SANITIZE_THREAD__)
// `sdd_cli info` without --model prints every field of the effective
// standard config with its variable(s) and role.
TEST(ConfigCliFork, InfoPrintsEveryField) {
  ::setenv("SDD_LAYERS", "6", 1);
  std::map<std::string, std::string> printed;
  FILE* out = ::popen(SDD_CLI_PATH " info", "r");
  ASSERT_NE(out, nullptr);
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), out) != nullptr) {
    const std::string line{buffer};
    const std::size_t eq = line.find(" = ");
    ASSERT_NE(eq, std::string::npos) << line;
    printed[line.substr(0, eq)] = line.substr(eq + 3, line.size() - eq - 4);
  }
  EXPECT_EQ(::pclose(out), 0);
  ::unsetenv("SDD_LAYERS");

  std::map<std::string, std::string> names;
  for (const config::EnvBinding& b : core::kPipelineEnv) {
    std::string& list = names[b.path];
    list += (list.empty() ? "" : ",") + std::string{b.env};
  }
  core::PipelineConfig expected = core::PipelineConfig::standard();
  expected.model.n_layers = 6;
  std::size_t fields = 0;
  config::walk(expected, [&](const std::string& path, const config::Field&,
                             const auto& member, config::Role role) {
    ++fields;
    const std::string env = names.count(path) != 0 ? names[path] : "-";
    EXPECT_EQ(printed[path], config::format(member) + "  " + env + "  " +
                                 (role == config::Role::kKey ? "key" : "run"))
        << path;
  });
  EXPECT_EQ(printed.size(), fields);
}
#endif

}  // namespace
}  // namespace sdd
