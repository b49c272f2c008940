// Tests for the paper's core machinery: pruning metrics + Algorithm 1,
// self-data distillation with conditional selection, SLERP merging, and the
// experiment cache.
#include <filesystem>

#include <gtest/gtest.h>

#include "core/cache.hpp"
#include "core/distill.hpp"
#include "core/merge.hpp"
#include "core/prune.hpp"
#include "data/corpus.hpp"
#include "test_helpers.hpp"
#include "train/trainer.hpp"

namespace sdd::core {
namespace {

using sdd::testing::tiny_config;
using sdd::testing::tiny_real_vocab_config;

std::vector<std::vector<data::TokenId>> tiny_calibration() {
  const data::World world{42};
  return data::build_calibration_set(world, 3, 20, 77);
}

TEST(Prune, DistanceCurveShapeAndRange) {
  const nn::TransformerLM model{tiny_real_vocab_config(5), 1};
  const auto calibration = tiny_calibration();
  for (const ImportanceMetric metric :
       {ImportanceMetric::kAngularCosine, ImportanceMetric::kBlockInfluence,
        ImportanceMetric::kRelativeMagnitude}) {
    const BlockDistanceCurve curve =
        compute_block_distances(model, calibration, 2, metric);
    EXPECT_EQ(curve.distances.size(), 4U);  // L - n + 1 = 5 - 2 + 1
    EXPECT_GE(curve.best_start, 0);
    EXPECT_LE(curve.best_start, 3);
    EXPECT_EQ(curve.best_distance,
              curve.distances[static_cast<std::size_t>(curve.best_start)]);
    for (double d : curve.distances) EXPECT_GE(d, 0.0);
    if (metric == ImportanceMetric::kAngularCosine) {
      for (double d : curve.distances) EXPECT_LE(d, 1.0);  // arccos/pi in [0,1]
    }
  }
}

TEST(Prune, ArgminIsActuallyMinimal) {
  const nn::TransformerLM model{tiny_real_vocab_config(6), 2};
  const auto calibration = tiny_calibration();
  const BlockDistanceCurve curve = compute_block_distances(
      model, calibration, 3, ImportanceMetric::kAngularCosine);
  for (double d : curve.distances) EXPECT_GE(d, curve.best_distance);
}

TEST(Prune, IdentityLikeBlockIsSelected) {
  // Shrink one block's output projections toward zero: the block becomes a
  // near-identity (residual passthrough) and should be the pruning choice.
  nn::TransformerLM model{tiny_real_vocab_config(5), 3};
  const std::int64_t victim = 2;
  auto& block = model.block(static_cast<std::size_t>(victim));
  for (float& v : block.attention().wo().weight().data()) v *= 1e-4F;
  for (float& v : block.mlp().w_down().weight().data()) v *= 1e-4F;

  const auto calibration = tiny_calibration();
  const BlockDistanceCurve curve = compute_block_distances(
      model, calibration, 1, ImportanceMetric::kAngularCosine);
  EXPECT_EQ(curve.best_start, victim);
}

TEST(Prune, PruneModelRemovesSelectedBlock) {
  const nn::TransformerLM model{tiny_real_vocab_config(5), 4};
  const auto calibration = tiny_calibration();
  const PruneResult result = prune_model(model, calibration, 2);
  EXPECT_EQ(result.model.n_layers(), 3);
  EXPECT_EQ(result.block_size, 2);
  EXPECT_EQ(result.start, result.curve.best_start);
}

TEST(Prune, LayerImportanceHasOneEntryPerLayer) {
  const nn::TransformerLM model{tiny_real_vocab_config(4), 5};
  const auto importance = layer_importance(model, tiny_calibration(),
                                           ImportanceMetric::kBlockInfluence);
  EXPECT_EQ(importance.size(), 4U);
}

TEST(Prune, RejectsBadInput) {
  const nn::TransformerLM model{tiny_real_vocab_config(3), 6};
  const auto calibration = tiny_calibration();
  EXPECT_THROW(compute_block_distances(model, calibration, 0,
                                       ImportanceMetric::kAngularCosine),
               std::invalid_argument);
  EXPECT_THROW(compute_block_distances(model, calibration, 3,
                                       ImportanceMetric::kAngularCosine),
               std::invalid_argument);
  EXPECT_THROW(compute_block_distances(model, {}, 1,
                                       ImportanceMetric::kAngularCosine),
               std::invalid_argument);
}

// ------------------------------- distill ---------------------------------

TEST(Distill, FallsBackWhenTeacherIsWrong) {
  // An untrained tiny model will essentially never produce the right number:
  // the conditional selection must keep every original target.
  const nn::TransformerLM model{tiny_config(2), 7};
  const data::World world{42};
  // NOTE: tiny_config vocab (50) is smaller than the real Vocab, so build the
  // dataset against the real vocab and a model with the real vocab size.
  nn::ModelConfig config = tiny_config(2);
  config.vocab_size = data::Vocab::instance().size();
  const nn::TransformerLM teacher{config, 8};
  const data::SftDataset dataset = data::make_gsm8k_dataset(world, 10, 5);

  DistillConfig distill_config;
  distill_config.max_new_tokens = 12;
  DistillStats stats;
  const data::SftDataset distilled =
      self_distill_dataset(teacher, dataset, distill_config, &stats);

  EXPECT_EQ(stats.total, 10);
  EXPECT_EQ(stats.accepted + stats.fallback, 10);
  ASSERT_EQ(distilled.examples.size(), dataset.examples.size());
  for (std::size_t i = 0; i < distilled.examples.size(); ++i) {
    // Prompts always preserved.
    EXPECT_EQ(distilled.examples[i].prompt, dataset.examples[i].prompt);
    // Either the rewrite was accepted (and thus verifies) or the target is
    // byte-identical to the original.
    EXPECT_TRUE(data::response_matches(data::Vocab::instance(),
                                       distilled.examples[i],
                                       distilled.examples[i].target));
  }
  EXPECT_EQ(distilled.name, "gsm8k+selfdistilled");
}

TEST(Distill, OpenEndedRewritesAreAccepted) {
  // Dolly-style examples accept any non-degenerate rewrite, so acceptance
  // should be high even for an untrained teacher (as long as it emits >= 3
  // tokens before <eos>).
  nn::ModelConfig config = tiny_config(2);
  config.vocab_size = data::Vocab::instance().size();
  const nn::TransformerLM teacher{config, 9};
  const data::World world{42};
  const data::SftDataset dataset = data::make_dolly_dataset(world, 8, 6);
  DistillStats stats;
  const data::SftDataset distilled =
      self_distill_dataset(teacher, dataset, {}, &stats);
  EXPECT_EQ(stats.total, 8);
  // All outputs verify their own keys by construction.
  for (const data::SftExample& example : distilled.examples) {
    EXPECT_TRUE(
        data::response_matches(data::Vocab::instance(), example, example.target));
  }
}

// -------------------------------- merge -----------------------------------

TEST(Merge, SlerpEndpoints) {
  const std::vector<float> a{1.0F, 0.0F, 2.0F};
  const std::vector<float> b{0.0F, 1.0F, -1.0F};
  const auto at0 = slerp(a, b, 0.0F);
  const auto at1 = slerp(a, b, 1.0F);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(at0[i], a[i], 1e-5F);
    EXPECT_NEAR(at1[i], b[i], 1e-5F);
  }
}

TEST(Merge, SlerpOnUnitCircleStaysOnCircle) {
  // 2-D unit vectors at 90 degrees: slerp(t=0.5) must be the 45-degree unit
  // vector — the defining property of spherical interpolation.
  const std::vector<float> a{1.0F, 0.0F};
  const std::vector<float> b{0.0F, 1.0F};
  const auto mid = slerp(a, b, 0.5F);
  const float inv_sqrt2 = 1.0F / std::sqrt(2.0F);
  EXPECT_NEAR(mid[0], inv_sqrt2, 1e-5F);
  EXPECT_NEAR(mid[1], inv_sqrt2, 1e-5F);
  // Linear interpolation would give 0.5/0.5 with norm < 1.
  const auto linear = lerp(a, b, 0.5F);
  EXPECT_LT(std::hypot(linear[0], linear[1]), 1.0F);
}

TEST(Merge, SlerpParallelVectorsFallsBackToLerp) {
  const std::vector<float> a{1.0F, 2.0F};
  const std::vector<float> b{2.0F, 4.0F};  // parallel to a
  const auto mid = slerp(a, b, 0.5F);
  EXPECT_NEAR(mid[0], 1.5F, 1e-4F);
  EXPECT_NEAR(mid[1], 3.0F, 1e-4F);
}

TEST(Merge, ModelEndpointsReproduceInputs) {
  const nn::TransformerLM a{tiny_config(2), 10};
  const nn::TransformerLM b{tiny_config(2), 11};
  const nn::TransformerLM at0 = merge_models(a, b, 0.0F);
  const nn::TransformerLM at1 = merge_models(a, b, 1.0F);
  EXPECT_EQ(at0.weight_hash(), a.weight_hash());
  EXPECT_EQ(at1.weight_hash(), b.weight_hash());
}

TEST(Merge, MidpointDiffersFromBoth) {
  const nn::TransformerLM a{tiny_config(2), 12};
  const nn::TransformerLM b{tiny_config(2), 13};
  for (const MergeMode mode : {MergeMode::kSlerpPerTensor, MergeMode::kSlerpWholeModel,
                               MergeMode::kLerp}) {
    const nn::TransformerLM mid = merge_models(a, b, 0.5F, mode);
    EXPECT_NE(mid.weight_hash(), a.weight_hash());
    EXPECT_NE(mid.weight_hash(), b.weight_hash());
  }
}

TEST(Merge, RejectsMismatchedArchitectures) {
  const nn::TransformerLM a{tiny_config(2), 14};
  const nn::TransformerLM b{tiny_config(3), 15};
  EXPECT_THROW(merge_models(a, b, 0.5F), std::invalid_argument);
  const nn::TransformerLM c{tiny_config(2), 16};
  EXPECT_THROW(merge_models(a, c, 1.5F), std::invalid_argument);
}

// -------------------------------- cache -----------------------------------

TEST(Cache, ModelRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "sdd_cache_test";
  std::filesystem::remove_all(dir);
  ExperimentCache cache{dir};
  EXPECT_FALSE(cache.load_model(1).has_value());

  const nn::TransformerLM model{tiny_config(2), 17};
  cache.store_model(1, model);
  const auto loaded = cache.load_model(1);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->weight_hash(), model.weight_hash());
  std::filesystem::remove_all(dir);
}

TEST(Cache, DatasetRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "sdd_cache_test2";
  std::filesystem::remove_all(dir);
  ExperimentCache cache{dir};
  const data::World world{42};
  const data::SftDataset dataset = data::make_alpaca_dataset(world, 15, 3);
  cache.store_dataset(9, dataset);
  const auto loaded = cache.load_dataset(9);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->hash(), dataset.hash());
  EXPECT_EQ(loaded->name, dataset.name);
  EXPECT_EQ(static_cast<int>(loaded->family), static_cast<int>(dataset.family));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sdd::core
