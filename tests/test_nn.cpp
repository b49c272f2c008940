// Tests for the transformer modules: shapes, KV-cache parity with the batched
// forward, pruning surgery, LoRA algebra, and checkpoint round-trips.
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "nn/decode.hpp"
#include "nn/transformer.hpp"
#include "tensor/kernels.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace sdd {
namespace {

using testing::tiny_config;

std::vector<std::int32_t> random_ids(Rng& rng, std::int64_t n, std::int64_t vocab) {
  std::vector<std::int32_t> ids(static_cast<std::size_t>(n));
  for (auto& id : ids) id = static_cast<std::int32_t>(rng.uniform_int(0, vocab - 1));
  return ids;
}

TEST(TransformerLM, ForwardShape) {
  const nn::TransformerLM model{tiny_config(), 1};
  Rng rng{3};
  const auto ids = random_ids(rng, 2 * 7, model.config().vocab_size);
  const Tensor logits = model.forward(ids, 2, 7);
  EXPECT_EQ(logits.shape(), (Shape{2, 7, model.config().vocab_size}));
}

TEST(TransformerLM, RejectsBadVocab) {
  nn::ModelConfig config = tiny_config();
  config.vocab_size = 0;
  EXPECT_THROW(nn::TransformerLM(config, 1), std::invalid_argument);
}

TEST(TransformerLM, DeterministicInit) {
  const nn::TransformerLM a{tiny_config(), 5};
  const nn::TransformerLM b{tiny_config(), 5};
  EXPECT_EQ(a.weight_hash(), b.weight_hash());
  const nn::TransformerLM c{tiny_config(), 6};
  EXPECT_NE(a.weight_hash(), c.weight_hash());
}

TEST(TransformerLM, DecodeMatchesBatchedForward) {
  // The KV-cache incremental path must reproduce the training forward exactly
  // (up to float noise): this ties the inference engine to the autograd path.
  const nn::TransformerLM model{tiny_config(4), 7};
  Rng rng{8};
  const std::int64_t seq = 9;
  const auto ids = random_ids(rng, seq, model.config().vocab_size);

  NoGradGuard no_grad;
  const Tensor logits = model.forward(ids, 1, seq);

  auto state = model.make_decode_state();
  const std::int64_t vocab = model.config().vocab_size;
  for (std::int64_t t = 0; t < seq; ++t) {
    const std::vector<float> step_logits =
        model.decode_step(state, ids[static_cast<std::size_t>(t)]);
    for (std::int64_t v = 0; v < vocab; ++v) {
      EXPECT_NEAR(step_logits[static_cast<std::size_t>(v)],
                  logits.data()[t * vocab + v], 2e-3F)
          << "mismatch at position " << t << " vocab " << v;
    }
  }
}

TEST(TransformerLM, HiddenStatesCountAndShape) {
  const nn::TransformerLM model{tiny_config(3), 2};
  Rng rng{4};
  const auto ids = random_ids(rng, 2 * 5, model.config().vocab_size);
  const auto states = model.hidden_states(ids, 2, 5);
  ASSERT_EQ(states.size(), 4U);  // embedding + 3 block outputs
  for (const auto& s : states) {
    EXPECT_EQ(s.size(), static_cast<std::size_t>(2 * 5 * model.config().d_model));
  }
}

TEST(TransformerLM, PrunedRemovesBlocksAndKeepsOthersIdentical) {
  const nn::TransformerLM model{tiny_config(5), 3};
  const nn::TransformerLM pruned = model.pruned(1, 2);
  EXPECT_EQ(pruned.n_layers(), 3);
  EXPECT_EQ(pruned.config().n_layers, 3);

  // Pruned model must equal a manual composition: blocks 0, 3, 4.
  Rng rng{5};
  const auto ids = random_ids(rng, 6, model.config().vocab_size);
  const auto full_states = model.hidden_states(ids, 1, 6);
  const auto pruned_states = pruned.hidden_states(ids, 1, 6);
  // Embedding and block 0 output are shared prefixes.
  EXPECT_EQ(full_states[0], pruned_states[0]);
  EXPECT_EQ(full_states[1], pruned_states[1]);
}

TEST(TransformerLM, PrunedValidatesRange) {
  const nn::TransformerLM model{tiny_config(4), 3};
  EXPECT_THROW(model.pruned(3, 2), std::invalid_argument);
  EXPECT_THROW(model.pruned(-1, 1), std::invalid_argument);
  EXPECT_THROW(model.pruned(0, 0), std::invalid_argument);
}

TEST(TransformerLM, CloneIsDeepCopy) {
  nn::TransformerLM model{tiny_config(), 9};
  nn::TransformerLM copy = model.clone();
  EXPECT_EQ(model.weight_hash(), copy.weight_hash());
  // Mutating the copy must not affect the original.
  copy.block(0).attention().wq().weight().data()[0] += 1.0F;
  EXPECT_NE(model.weight_hash(), copy.weight_hash());
}

TEST(TransformerLM, SaveLoadRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "sdd_test_model.bin";
  const nn::TransformerLM model{tiny_config(), 11};
  model.save(path);
  const nn::TransformerLM loaded = nn::TransformerLM::load(path);
  EXPECT_EQ(model.weight_hash(), loaded.weight_hash());
  EXPECT_EQ(loaded.config(), model.config());
  std::filesystem::remove(path);
}

TEST(TransformerLM, ParamCountMatchesManualFormula) {
  const nn::ModelConfig config = tiny_config(3);
  const nn::TransformerLM model{config, 1};
  const std::int64_t d = config.d_model;
  const std::int64_t expected = config.vocab_size * d +
                                config.n_layers * (4 * d * d + 3 * d * config.d_ff +
                                                   2 * d) +
                                d;
  EXPECT_EQ(model.param_count(), expected);
}

// ---------------------------------- LoRA ----------------------------------

TEST(Lora, AttachIsIdentityAtInit) {
  nn::TransformerLM model{tiny_config(2), 21};
  Rng rng{6};
  const auto ids = random_ids(rng, 5, model.config().vocab_size);
  NoGradGuard no_grad;
  const Tensor before = model.forward(ids, 1, 5);
  model.attach_lora(nn::LoraConfig{}, 77);
  const Tensor after = model.forward(ids, 1, 5);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before.data()[i], after.data()[i]);
  }
}

TEST(Lora, OnlyAdaptersAreTrainable) {
  nn::TransformerLM model{tiny_config(2), 22};
  model.attach_lora(nn::LoraConfig{}, 78);
  for (const nn::NamedParam& p : model.trainable_parameters()) {
    EXPECT_TRUE(p.name.find("lora") != std::string::npos) << p.name;
  }
  EXPECT_TRUE(model.has_lora());
}

TEST(Lora, MergeReproducesAdaptedForward) {
  nn::TransformerLM model{tiny_config(2), 23};
  model.attach_lora(nn::LoraConfig{.rank = 4, .alpha = 8.0F}, 79);
  // Give the adapters non-trivial values.
  Rng rng{7};
  for (const nn::NamedParam& p : model.trainable_parameters()) {
    Tensor t = p.tensor;
    for (float& v : t.data()) v = rng.gaussian_float(0.0F, 0.05F);
  }
  const auto ids = random_ids(rng, 6, model.config().vocab_size);
  NoGradGuard no_grad;
  const Tensor adapted = model.forward(ids, 1, 6);
  model.merge_lora();
  EXPECT_FALSE(model.has_lora());
  const Tensor merged = model.forward(ids, 1, 6);
  for (std::int64_t i = 0; i < adapted.numel(); ++i) {
    EXPECT_NEAR(adapted.data()[i], merged.data()[i], 2e-3F);
  }
}

TEST(Lora, SaveWithAdaptersThrows) {
  nn::TransformerLM model{tiny_config(2), 24};
  model.attach_lora(nn::LoraConfig{}, 80);
  EXPECT_THROW(model.save("/tmp/sdd_should_not_exist.bin"), std::logic_error);
}

TEST(Lora, DecodeIncludesAdapterContribution) {
  nn::TransformerLM model{tiny_config(2), 25};
  model.attach_lora(nn::LoraConfig{}, 81);
  Rng rng{9};
  for (const nn::NamedParam& p : model.trainable_parameters()) {
    Tensor t = p.tensor;
    for (float& v : t.data()) v = rng.gaussian_float(0.0F, 0.05F);
  }
  const auto ids = random_ids(rng, 5, model.config().vocab_size);
  NoGradGuard no_grad;
  const Tensor logits = model.forward(ids, 1, 5);
  auto state = model.make_decode_state();
  std::vector<float> step;
  for (std::int64_t t = 0; t < 5; ++t) {
    step = model.decode_step(state, ids[static_cast<std::size_t>(t)]);
  }
  const std::int64_t vocab = model.config().vocab_size;
  for (std::int64_t v = 0; v < vocab; ++v) {
    EXPECT_NEAR(step[static_cast<std::size_t>(v)], logits.data()[4 * vocab + v], 2e-3F);
  }
}

// ----------------------------- batched decode -----------------------------

// memcmp needs valid pointers even for zero bytes; empty rows have none.
bool bitwise_equal(const float* a, const float* b, std::size_t count) {
  return count == 0 || std::memcmp(a, b, count * sizeof(float)) == 0;
}

// Six sessions at different positions advance together by 0-32 rows each in
// one decode_batch; every session's logits, position and KV cache must equal
// prefill() on that session alone, bit for bit.
void expect_decode_batch_matches_prefill(const nn::TransformerLM& model) {
  using State = nn::TransformerLM::DecodeState;
  const std::int64_t vocab = model.config().vocab_size;
  const std::int64_t channels = model.config().d_model;
  const std::vector<std::int64_t> prefix = {0, 5, 1, 17, 9, 3};
  const std::vector<std::int64_t> rows = {32, 1, 7, 1, 19, 0};
  Rng rng{77};
  std::vector<State> batched;
  std::vector<State> single;
  std::vector<std::vector<std::int32_t>> feeds;
  for (std::size_t s = 0; s < prefix.size(); ++s) {
    State state = model.make_decode_state();
    model.prefill(state, random_ids(rng, prefix[s], vocab));
    batched.push_back(state);
    single.push_back(state);
    feeds.push_back(random_ids(rng, rows[s], vocab));
  }
  std::vector<nn::TransformerLM::DecodeSegment> segments;
  for (std::size_t s = 0; s < batched.size(); ++s) {
    segments.push_back({&batched[s], feeds[s]});
  }
  const std::vector<std::vector<float>> logits = model.decode_batch(segments);
  ASSERT_EQ(logits.size(), segments.size());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const std::vector<float> want = model.prefill(single[s], feeds[s]);
    ASSERT_EQ(logits[s].size(), want.size()) << "segment " << s;
    EXPECT_TRUE(bitwise_equal(logits[s].data(), want.data(), want.size()))
        << "segment " << s << " logits differ from its own prefill";
    ASSERT_EQ(batched[s].position, single[s].position);
    for (std::size_t l = 0; l < batched[s].caches.size(); ++l) {
      const nn::LayerKVCache& got = batched[s].caches[l];
      const nn::LayerKVCache& ref = single[s].caches[l];
      ASSERT_EQ(got.length, ref.length);
      const auto floats = static_cast<std::size_t>(ref.length * channels);
      EXPECT_TRUE(bitwise_equal(got.keys.data(), ref.keys.data(), floats))
          << "segment " << s << " layer " << l << " keys";
      EXPECT_TRUE(bitwise_equal(got.values.data(), ref.values.data(), floats))
          << "segment " << s << " layer " << l << " values";
    }
  }
}

TEST(TransformerLM, DecodeBatchMatchesPerStatePrefillTiny) {
  // d_ff 24: the SwiGLU rows end in a partial 16-lane block.
  expect_decode_batch_matches_prefill(nn::TransformerLM{tiny_config(), 61});
}

TEST(TransformerLM, DecodeBatchMatchesPerStatePrefillD64) {
  nn::ModelConfig config;
  config.vocab_size = 300;
  config.d_model = 64;
  config.n_heads = 4;
  config.n_layers = 3;
  config.d_ff = 128;
  config.max_seq_len = 64;
  expect_decode_batch_matches_prefill(nn::TransformerLM{config, 62});
}

TEST(TransformerLM, DecodeBatchMatchesPerStatePrefillWithLora) {
  nn::TransformerLM model{tiny_config(2), 63};
  model.attach_lora(nn::LoraConfig{}, 82);
  Rng rng{10};
  for (const nn::NamedParam& p : model.trainable_parameters()) {
    Tensor t = p.tensor;
    for (float& v : t.data()) v = rng.gaussian_float(0.0F, 0.05F);
  }
  expect_decode_batch_matches_prefill(model);
}

TEST(TransformerLM, DecodeBatchValidatesBeforeTouchingAnyState) {
  const nn::TransformerLM model{tiny_config(), 64};
  auto a = model.make_decode_state();
  auto b = model.make_decode_state();
  const std::vector<std::int32_t> prompt{4, 8, 15};
  model.prefill(a, prompt);
  const std::vector<std::int32_t> ok{1, 2};
  const std::vector<std::int32_t> bad{1, 50};  // vocab is 50
  const std::vector<std::int32_t> too_long(49, 3);  // context is 48
  const auto untouched = [&] {
    EXPECT_EQ(a.position, 3);
    EXPECT_EQ(b.position, 0);
    for (const nn::LayerKVCache& cache : a.caches) EXPECT_EQ(cache.length, 3);
    for (const nn::LayerKVCache& cache : b.caches) EXPECT_EQ(cache.length, 0);
  };
  using Segment = nn::TransformerLM::DecodeSegment;
  const std::vector<Segment> bad_token{{&a, ok}, {&b, bad}};
  EXPECT_THROW(model.decode_batch(bad_token), std::invalid_argument);
  untouched();
  const std::vector<Segment> twice{{&a, ok}, {&a, ok}};
  EXPECT_THROW(model.decode_batch(twice), std::invalid_argument);
  untouched();
  const std::vector<Segment> overflow{{&a, ok}, {&b, too_long}};
  EXPECT_THROW(model.decode_batch(overflow), std::logic_error);
  untouched();

  auto reference = model.make_decode_state();
  model.prefill(reference, prompt);
  const std::vector<Segment> good{{&a, ok}, {&b, {}}};
  const std::vector<std::vector<float>> logits = model.decode_batch(good);
  EXPECT_EQ(logits[0], model.prefill(reference, ok));
  EXPECT_TRUE(logits[1].empty());
  EXPECT_EQ(b.position, 0);
}

// One pass mixing all-row (verify span), last-row (prefill chunk or decode
// token) and empty segments, 31 rows in all, run serially and sharded over a
// pool: every logits row and KV cache must equal decode_span() or prefill()
// on a clone of that state alone, bit for bit.
TEST(TransformerLM, DecodeBatchAllRowSegmentsMatchDecodeSpan) {
  using State = nn::TransformerLM::DecodeState;
  const nn::TransformerLM model{tiny_config(), 65};
  const std::int64_t vocab = model.config().vocab_size;
  const std::int64_t channels = model.config().d_model;
  const std::vector<std::int64_t> prefix = {5, 0, 3, 17, 9, 0};
  const std::vector<std::int64_t> rows = {12, 9, 0, 1, 1, 8};
  const std::vector<bool> all_rows = {true, false, true, true, false, true};
  Rng rng{78};
  std::vector<State> start;
  std::vector<std::vector<std::int32_t>> feeds;
  for (std::size_t s = 0; s < prefix.size(); ++s) {
    start.push_back(model.make_decode_state());
    model.prefill(start.back(), random_ids(rng, prefix[s], vocab));
    feeds.push_back(random_ids(rng, rows[s], vocab));
  }
  std::vector<State> reference = start;
  std::vector<std::vector<float>> want;
  {
    const kernels::ScopedDispatch serial{kernels::DispatchMode::kForceSerial};
    for (std::size_t s = 0; s < start.size(); ++s) {
      want.push_back(all_rows[s] ? model.decode_span(reference[s], feeds[s])
                                 : model.prefill(reference[s], feeds[s]));
    }
  }

  ThreadPool pool{3};
  for (const bool parallel : {false, true}) {
    const kernels::ScopedDispatch dispatch{
        parallel ? kernels::DispatchMode::kForceParallel
                 : kernels::DispatchMode::kForceSerial,
        parallel ? &pool : nullptr};
    std::vector<State> batched = start;
    std::vector<nn::TransformerLM::DecodeSegment> segments;
    for (std::size_t s = 0; s < batched.size(); ++s) {
      segments.push_back({&batched[s], feeds[s], all_rows[s]});
    }
    const std::vector<std::vector<float>> logits = model.decode_batch(segments);
    ASSERT_EQ(logits.size(), segments.size());
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const std::size_t expect_rows = feeds[s].empty() ? 0 : all_rows[s] ? feeds[s].size() : 1;
      ASSERT_EQ(logits[s].size(), expect_rows * static_cast<std::size_t>(vocab))
          << "segment " << s;
      ASSERT_EQ(logits[s].size(), want[s].size()) << "segment " << s;
      EXPECT_TRUE(bitwise_equal(logits[s].data(), want[s].data(), want[s].size()))
          << (parallel ? "parallel" : "serial") << " segment " << s << " logits";
      ASSERT_EQ(batched[s].position, reference[s].position);
      for (std::size_t l = 0; l < batched[s].caches.size(); ++l) {
        const nn::LayerKVCache& got = batched[s].caches[l];
        const nn::LayerKVCache& ref = reference[s].caches[l];
        ASSERT_EQ(got.length, ref.length);
        const auto floats = static_cast<std::size_t>(ref.length * channels);
        EXPECT_TRUE(bitwise_equal(got.keys.data(), ref.keys.data(), floats))
            << "segment " << s << " layer " << l << " keys";
        EXPECT_TRUE(bitwise_equal(got.values.data(), ref.values.data(), floats))
            << "segment " << s << " layer " << l << " values";
      }
    }
  }
}

// --------------------------------- decode ---------------------------------

TEST(Decode, GreedyIsDeterministic) {
  const nn::TransformerLM model{tiny_config(2), 31};
  const std::vector<std::int32_t> prompt{1, 2, 3};
  nn::GenerateOptions options;
  options.max_new_tokens = 8;
  const auto a = nn::generate(model, prompt, options);
  const auto b = nn::generate(model, prompt, options);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), 8U);
}

TEST(Decode, RespectsContextLimit) {
  nn::ModelConfig config = tiny_config(2);
  config.max_seq_len = 10;
  const nn::TransformerLM model{config, 32};
  const std::vector<std::int32_t> prompt{1, 2, 3, 4};
  nn::GenerateOptions options;
  options.max_new_tokens = 100;
  const auto out = nn::generate(model, prompt, options);
  EXPECT_LE(out.size(), 6U);
}

TEST(Decode, SequenceLogprobIsNegativeAndAdditive) {
  const nn::TransformerLM model{tiny_config(2), 33};
  const std::vector<std::int32_t> prompt{1, 2};
  const std::vector<std::int32_t> cont_a{3};
  const std::vector<std::int32_t> cont_ab{3, 4};
  const double lp_a = nn::sequence_logprob(model, prompt, cont_a);
  const double lp_ab = nn::sequence_logprob(model, prompt, cont_ab);
  EXPECT_LT(lp_a, 0.0);
  EXPECT_LT(lp_ab, lp_a);  // adding a token can only lower total logprob
}

TEST(Decode, TemperatureSamplingSeedControlsOutput) {
  const nn::TransformerLM model{tiny_config(2), 34};
  const std::vector<std::int32_t> prompt{1, 2, 3};
  nn::GenerateOptions options;
  options.max_new_tokens = 10;
  options.temperature = 1.0F;
  options.seed = 1;
  const auto a = nn::generate(model, prompt, options);
  const auto b = nn::generate(model, prompt, options);
  EXPECT_EQ(a, b);  // same seed, same draw
}

}  // namespace
}  // namespace sdd
