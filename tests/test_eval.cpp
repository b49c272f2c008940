// Tests for the evaluation harness, suites, embedding diagnostics, and FLOPs
// accounting.
#include <algorithm>

#include <gtest/gtest.h>

#include "eval/embedding.hpp"
#include "eval/flops.hpp"
#include "eval/harness.hpp"
#include "eval/suite.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/supervisor.hpp"

namespace sdd::eval {
namespace {

nn::ModelConfig real_vocab_config(std::int64_t layers = 2) {
  nn::ModelConfig config = sdd::testing::tiny_config(layers);
  config.vocab_size = data::Vocab::instance().size();
  config.max_seq_len = 160;
  return config;
}

TEST(Harness, McAccuracyBoundsAndCounts) {
  const nn::TransformerLM model{real_vocab_config(), 1};
  const data::World world{42};
  const data::McTask task = data::make_winogrande_task(world, 12, 5);
  const TaskResult result = evaluate_mc(model, task, {.shots = 0});
  EXPECT_EQ(result.n_items, 12);
  EXPECT_GE(result.accuracy, 0.0);
  EXPECT_LE(result.accuracy, 1.0);
  EXPECT_EQ(result.task, "winogrande");
}

TEST(Harness, McRespectsMaxItems) {
  const nn::TransformerLM model{real_vocab_config(), 2};
  const data::World world{42};
  const data::McTask task = data::make_arc_task(world, 20, 5);
  const TaskResult result = evaluate_mc(model, task, {.shots = 0, .max_items = 4});
  EXPECT_EQ(result.n_items, 4);
}

TEST(Harness, McDeterministicForFixedSeed) {
  const nn::TransformerLM model{real_vocab_config(), 3};
  const data::World world{42};
  const data::McTask task = data::make_mmlu_task(world, 10, 5);
  const TaskResult a = evaluate_mc(model, task, {.shots = 2, .seed = 9});
  const TaskResult b = evaluate_mc(model, task, {.shots = 2, .seed = 9});
  EXPECT_EQ(a.n_correct, b.n_correct);
}

TEST(Harness, BiasedModelScoresPerfect) {
  // A model strongly biased toward a specific token sequence should pick the
  // option containing it. We simulate by fine-tuning? Too slow — instead use
  // an item whose gold option is the repetition of the context's last tokens,
  // which even a random model can't reliably do. Instead: verify the scorer
  // itself by feeding a single-option item (degenerate but exercises paths).
  const nn::TransformerLM model{real_vocab_config(), 4};
  data::McTask task;
  task.name = "degenerate";
  data::McItem item;
  const data::Vocab& vocab = data::Vocab::instance();
  item.context = vocab.encode("q : what does the cat say ?");
  item.context.push_back(vocab.sep());
  item.options = {vocab.encode("a : the cat meows .")};
  item.correct = 0;
  task.items.push_back(item);
  const TaskResult result = evaluate_mc(model, task, {.shots = 0});
  EXPECT_EQ(result.n_correct, 1);
}

TEST(Harness, GenerativeEvalExtractsAnswer) {
  const nn::TransformerLM model{real_vocab_config(), 5};
  const data::GenTask task = data::make_gsm8k_eval_task(5, 3);
  const TaskResult result = evaluate_gen(model, task, {.shots = 0});
  EXPECT_EQ(result.n_items, 5);
  EXPECT_GE(result.accuracy, 0.0);
  EXPECT_LE(result.accuracy, 1.0);
}

TEST(Harness, AnswerGenerativeStopsAtQuestionMarker) {
  const nn::TransformerLM model{real_vocab_config(), 6};
  const data::Vocab& vocab = data::Vocab::instance();
  std::vector<data::TokenId> prompt{vocab.bos()};
  const auto q = vocab.encode("q : what does the dog say ?");
  prompt.insert(prompt.end(), q.begin(), q.end());
  prompt.push_back(vocab.sep());
  const auto out = answer_generative(model, prompt, 20);
  EXPECT_LE(out.size(), 20U);
  for (const data::TokenId token : out) {
    EXPECT_NE(token, vocab.eos());
    EXPECT_NE(token, vocab.id("q"));
  }
}

// answer_generative prefills the prompt as one span; the result must be
// exactly what feeding the prompt one decode_step at a time gives.
TEST(Harness, AnswerGenerativeMatchesPerTokenFeed) {
  const data::Vocab& vocab = data::Vocab::instance();
  for (const std::uint64_t seed : {6, 8, 9}) {
    const nn::TransformerLM model{real_vocab_config(), seed};
    std::vector<data::TokenId> prompt{vocab.bos()};
    const auto q = vocab.encode("q : what does the dog say ? what does the dog say ?");
    prompt.insert(prompt.end(), q.begin(), q.end());
    prompt.push_back(vocab.sep());

    auto state = model.make_decode_state();
    std::vector<float> logits;
    for (const data::TokenId token : prompt) logits = model.decode_step(state, token);
    std::vector<data::TokenId> want;
    for (std::int64_t i = 0; i < 20; ++i) {
      const auto next = static_cast<data::TokenId>(
          std::max_element(logits.begin(), logits.end()) - logits.begin());
      if (next == vocab.eos() || next == vocab.id("q")) break;
      want.push_back(next);
      if (i + 1 < 20) logits = model.decode_step(state, next);
    }
    EXPECT_EQ(answer_generative(model, prompt, 20), want) << "seed " << seed;
  }
}

// Like nn::generate, an empty prompt has no logits to decode from.
TEST(Harness, AnswerGenerativeRejectsEmptyPrompt) {
  const nn::TransformerLM model{real_vocab_config(), 6};
  EXPECT_THROW(answer_generative(model, {}, 20), std::invalid_argument);
}

// Generative eval steps through the same per-step hooks as every other
// decode, so a stalled eval decode is cancelled by the stage's hang
// watchdog instead of running unwatched.
TEST(Harness, GenerativeEvalIsCoveredByTheHangWatchdog) {
  const nn::TransformerLM model{real_vocab_config(), 6};
  const data::Vocab& vocab = data::Vocab::instance();
  std::vector<data::TokenId> prompt{vocab.bos()};
  const auto q = vocab.encode("q : what does the dog say ?");
  prompt.insert(prompt.end(), q.begin(), q.end());

  fault::configure("hang_decode:0,hang_cap:10000");
  supervisor::SupervisorConfig config;
  config.retry_max = 0;
  config.hang_ms = 100;
  std::optional<ErrorKind> kind;
  try {
    supervisor::run_stage("eval.generative", config,
                          [&] { answer_generative(model, prompt, 20); });
  } catch (const Error& e) {
    kind = e.kind();
  }
  fault::reset();
  EXPECT_EQ(kind, ErrorKind::kTimeout);
}

TEST(Suite, TaskListsMatchPaper) {
  EXPECT_EQ(openllm_v1_tasks().size(), 6U);
  EXPECT_EQ(core_tasks(),
            (std::vector<std::string>{"arc_c", "gsm8k", "mmlu"}));
}

TEST(Suite, EvaluateSuiteAveragesTasks) {
  const nn::TransformerLM model{real_vocab_config(), 7};
  const data::World world{42};
  SuiteSpec spec;
  spec.mc_items = 4;
  spec.gen_items = 2;
  const SuiteScores scores = evaluate_suite(model, world, core_tasks(), spec);
  ASSERT_EQ(scores.tasks.size(), 3U);
  double manual = 0.0;
  for (const auto& [name, acc] : scores.tasks) manual += acc;
  EXPECT_NEAR(scores.average, manual / 3.0, 1e-9);
  EXPECT_NO_THROW(scores.task("gsm8k"));
  EXPECT_THROW(scores.task("nope"), std::invalid_argument);
}

TEST(Suite, RecoveryPercent) {
  SuiteScores baseline;
  baseline.average = 0.6;
  SuiteScores pruned;
  pruned.average = 0.45;
  EXPECT_NEAR(recovery_percent(pruned, baseline), 75.0, 1e-9);
  SuiteScores zero;
  EXPECT_THROW(recovery_percent(pruned, zero), std::invalid_argument);
}

TEST(Suite, UnknownTaskThrows) {
  const nn::TransformerLM model{real_vocab_config(), 8};
  const data::World world{42};
  EXPECT_THROW(evaluate_named_task(model, world, "bogus", {}),
               std::invalid_argument);
}

TEST(Embedding, CosineProperties) {
  const std::vector<float> a{1.0F, 0.0F};
  const std::vector<float> b{0.0F, 2.0F};
  EXPECT_NEAR(cosine_similarity(a, a), 1.0, 1e-6);
  EXPECT_NEAR(cosine_similarity(a, b), 0.0, 1e-6);
  const std::vector<float> neg{-1.0F, 0.0F};
  EXPECT_NEAR(cosine_similarity(a, neg), -1.0, 1e-6);
}

TEST(Embedding, SentenceEmbeddingShapeAndDeterminism) {
  const nn::TransformerLM model{real_vocab_config(), 9};
  const auto ids = data::Vocab::instance().encode("the cat meows .");
  const auto e1 = sentence_embedding(model, ids);
  const auto e2 = sentence_embedding(model, ids);
  EXPECT_EQ(e1.size(), static_cast<std::size_t>(model.config().d_model));
  EXPECT_EQ(e1, e2);
}

TEST(Embedding, IdenticalModelsHaveSimilarityOne) {
  const nn::TransformerLM model{real_vocab_config(), 10};
  const data::GenTask task = data::make_gsm8k_eval_task(3, 4);
  const SimilarityStats stats = embedding_shift(model, model, model, task, 3);
  ASSERT_EQ(stats.values.size(), 3U);
  for (double v : stats.values) EXPECT_NEAR(v, 1.0, 1e-5);
  EXPECT_NEAR(stats.mean, 1.0, 1e-5);
  EXPECT_NEAR(stats.stddev, 0.0, 1e-5);
}

TEST(Embedding, SummarizeStats) {
  const SimilarityStats stats = summarize({0.2, 0.4, 0.6});
  EXPECT_NEAR(stats.mean, 0.4, 1e-9);
  EXPECT_NEAR(stats.min, 0.2, 1e-9);
  EXPECT_NEAR(stats.max, 0.6, 1e-9);
  EXPECT_GT(stats.stddev, 0.0);
}

TEST(Embedding, HistogramNormalized) {
  const SimilarityStats stats = summarize({0.05, 0.15, 0.95, 0.95});
  const auto hist = stats.histogram(10);
  ASSERT_EQ(hist.size(), 10U);
  double total = 0.0;
  for (double h : hist) total += h;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(hist[9], 0.5, 1e-9);
  EXPECT_THROW(stats.histogram(0), std::invalid_argument);
}

TEST(Flops, AnalyticParamCountMatchesModel) {
  const nn::ModelConfig config = real_vocab_config(3);
  const nn::TransformerLM model{config, 11};
  EXPECT_EQ(analytic_param_count(config), model.param_count());
}

TEST(Flops, PruningSavingsScaleWithBlocks) {
  nn::ModelConfig base = real_vocab_config(16);
  nn::ModelConfig pruned = base;
  // Paper mapping: our block 3 of 16 corresponds to 6 of 32 -> 16.30% FLOPs.
  pruned.n_layers = 13;
  const double savings = param_savings(base, pruned);
  EXPECT_GT(savings, 0.10);
  EXPECT_LT(savings, 0.19);
  nn::ModelConfig pruned_more = base;
  pruned_more.n_layers = 11;
  EXPECT_GT(param_savings(base, pruned_more), savings);
  EXPECT_GT(flop_savings(base, pruned_more, 64), flop_savings(base, pruned, 64));
}

TEST(Flops, FlopsGrowWithContext) {
  const nn::ModelConfig config = real_vocab_config(4);
  EXPECT_GT(flops_per_token(config, 128), flops_per_token(config, 16));
  EXPECT_THROW(flops_per_token(config, 0), std::invalid_argument);
}

}  // namespace
}  // namespace sdd::eval
