// Tests for shared-prefix K/V reuse: nn::PrefixCache, the DecodeSession that
// restores from and publishes to it, and the serving slots that share one.
// Every reused output is compared with a cold nn::generate or prefill.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/decode.hpp"
#include "nn/prefix_cache.hpp"
#include "nn/transformer.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace sdd {
namespace {

using namespace std::chrono_literals;
using nn::DecodeSession;
using nn::PrefixCache;
using nn::TransformerLM;

constexpr std::size_t kChunk = 32;

// Room for 128-token prompts; the one-slot cap then holds five chunks.
nn::ModelConfig long_context_config() {
  nn::ModelConfig config = testing::tiny_config(4);
  config.max_seq_len = 160;
  return config;
}

std::int64_t slot_bytes(const TransformerLM& model) {
  return model.n_layers() * 2 * model.config().max_seq_len * model.config().d_model *
         static_cast<std::int64_t>(sizeof(float));
}

// `shared` tokens common to every salt, then a salt-specific tail.
std::vector<std::int32_t> prompt_with_prefix(std::size_t length, std::uint64_t salt,
                                             std::size_t shared = 64) {
  std::vector<std::int32_t> prompt;
  for (std::size_t t = 0; t < length; ++t) {
    const std::uint64_t mix = t < shared ? 0 : salt;
    prompt.push_back(static_cast<std::int32_t>((t * 7 + mix * 13 + 1) % 50));
  }
  return prompt;
}

nn::GenerateOptions options_for(std::uint64_t seed, float temperature = 0.0F) {
  nn::GenerateOptions options;
  options.max_new_tokens = 6;
  options.temperature = temperature;
  options.seed = seed;
  return options;
}

DecodeSession cached_session(const TransformerLM& model,
                             std::span<const std::int32_t> prompt,
                             const nn::GenerateOptions& options, PrefixCache& cache) {
  return DecodeSession{model, prompt, options, {options.stop_token}, kChunk,
                       nullptr, 1, true, &cache};
}

bool rows_equal(const std::vector<float>& a, const std::vector<float>& b,
                std::size_t floats) {
  return std::memcmp(a.data(), b.data(), floats * sizeof(float)) == 0;
}

// ---- nn::PrefixCache and DecodeSession --------------------------------------

TEST(PrefixCache, RestoredRowsAndLogitsEqualColdPrefill) {
  const TransformerLM full{long_context_config(), 301};
  const TransformerLM pruned = full.pruned(1, 2);
  TransformerLM lora = full.clone();
  lora.attach_lora(nn::LoraConfig{}, 302);
  Rng rng{303};
  for (const nn::NamedParam& param : lora.trainable_parameters()) {
    Tensor tensor = param.tensor;
    for (float& v : tensor.data()) v = rng.uniform_float(-0.2F, 0.2F);
  }

  const std::vector<std::int32_t> prompt = prompt_with_prefix(100, 1);
  const TransformerLM& lora_model = lora;
  for (const TransformerLM* model : {&full, &pruned, &lora_model}) {
    PrefixCache cache{*model, kChunk, slot_bytes(*model)};
    const nn::GenerateOptions options = options_for(7);
    DecodeSession donor = cached_session(*model, prompt, options, cache);
    EXPECT_EQ(donor.run(), nn::generate(*model, prompt, options));
    EXPECT_EQ(donor.prefill_reused(), 0U);
    EXPECT_EQ(cache.entries(), 3U);  // chunks ending at 32, 64 and 96

    TransformerLM::DecodeState cold = model->make_decode_state();
    const std::vector<float> cold_logits = model->prefill(cold, prompt);
    TransformerLM::DecodeState warm = model->make_decode_state();
    ASSERT_EQ(cache.restore(prompt, warm), 3U);
    ASSERT_EQ(warm.position, 96);
    const std::vector<float> warm_logits =
        model->prefill(warm, std::span{prompt}.subspan(96));
    ASSERT_EQ(warm_logits.size(), cold_logits.size());
    EXPECT_TRUE(rows_equal(warm_logits, cold_logits, cold_logits.size()));
    const std::size_t floats = prompt.size() * static_cast<std::size_t>(
                                                   model->config().d_model);
    for (std::size_t l = 0; l < cold.caches.size(); ++l) {
      EXPECT_TRUE(rows_equal(warm.caches[l].keys, cold.caches[l].keys, floats))
          << "layer " << l;
      EXPECT_TRUE(rows_equal(warm.caches[l].values, cold.caches[l].values, floats))
          << "layer " << l;
      EXPECT_EQ(warm.caches[l].length, cold.caches[l].length);
    }

    // A second session restores the three chunks and decodes the same tokens,
    // greedy and sampled alike.
    for (const float temperature : {0.0F, 0.8F}) {
      const nn::GenerateOptions opts = options_for(9, temperature);
      DecodeSession reuse = cached_session(*model, prompt, opts, cache);
      EXPECT_EQ(reuse.prefill_reused(), 96U);
      EXPECT_EQ(reuse.run(), nn::generate(*model, prompt, opts));
    }
  }
}

TEST(PrefixCache, PromptDifferingOnlyInToken31ReusesNothing) {
  const TransformerLM model{long_context_config(), 311};
  PrefixCache cache{model, kChunk, slot_bytes(model)};
  const std::vector<std::int32_t> base = prompt_with_prefix(70, 1);
  cached_session(model, base, options_for(1), cache).run();
  ASSERT_EQ(cache.entries(), 2U);

  std::vector<std::int32_t> at31 = base;
  at31[31] = (at31[31] + 1) % 50;
  DecodeSession miss = cached_session(model, at31, options_for(2), cache);
  EXPECT_EQ(miss.prefill_reused(), 0U);
  EXPECT_EQ(miss.run(), nn::generate(model, at31, options_for(2)));

  // One token later the first chunk still matches.
  std::vector<std::int32_t> at32 = base;
  at32[32] = (at32[32] + 1) % 50;
  DecodeSession partial = cached_session(model, at32, options_for(3), cache);
  EXPECT_EQ(partial.prefill_reused(), 32U);
  EXPECT_EQ(partial.run(), nn::generate(model, at32, options_for(3)));
}

TEST(PrefixCache, PromptEqualToCachedChainComputesItsLastChunk) {
  const TransformerLM model{long_context_config(), 321};
  PrefixCache cache{model, kChunk, slot_bytes(model)};
  const std::vector<std::int32_t> prompt = prompt_with_prefix(64, 1);
  cached_session(model, prompt, options_for(1), cache).run();
  ASSERT_EQ(cache.entries(), 2U);  // the whole prompt is a cached chain

  DecodeSession session = cached_session(model, prompt, options_for(4), cache);
  EXPECT_EQ(session.prefill_reused(), 32U);
  const std::optional<TransformerLM::DecodeSegment> first = session.advance();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tokens.size(), kChunk);  // the last chunk is computed
  EXPECT_EQ(first->state->position, 32);
  session.set_logits(model.decode_batch({&*first, 1}).front());
  while (!session.done()) {
    if (const auto segment = session.advance()) {
      session.set_logits(model.decode_batch({&*segment, 1}).front());
    }
  }
  EXPECT_EQ(session.take_generated(), nn::generate(model, prompt, options_for(4)));
}

TEST(PrefixCache, BytesNeverExceedTheCapUnderManyDistinctPrefixes) {
  const TransformerLM model{long_context_config(), 331};
  const std::int64_t entry_bytes = slot_bytes(model) / 5;  // 160 / 32 chunks
  for (const std::int64_t cap : {slot_bytes(model), entry_bytes * 2, entry_bytes}) {
    PrefixCache cache{model, kChunk, cap};
    Rng rng{332};
    for (std::uint64_t i = 0; i < 40; ++i) {
      const auto length = static_cast<std::size_t>(rng.uniform_int(33, 150));
      // A few shared stems under many distinct tails.
      const std::vector<std::int32_t> prompt =
          prompt_with_prefix(length, i + 1, static_cast<std::size_t>(32 * (i % 3)));
      const nn::GenerateOptions options = options_for(i);
      DecodeSession session = cached_session(model, prompt, options, cache);
      EXPECT_LE(cache.bytes(), cap);
      EXPECT_EQ(session.run(), nn::generate(model, prompt, options)) << "prompt " << i;
      EXPECT_LE(cache.bytes(), cap) << "prompt " << i;
      EXPECT_EQ(cache.bytes(), static_cast<std::int64_t>(cache.entries()) * entry_bytes);
    }
    EXPECT_GT(cache.entries(), 0U);
  }
}

// Under a three-chunk cap a new root evicts the deepest chunk of the older
// chain, never a parent: the rest of that chain still restores.
TEST(PrefixCache, EvictionTakesLeavesBeforeTheirParents) {
  const TransformerLM model{long_context_config(), 341};
  PrefixCache cache{model, kChunk, slot_bytes(model) / 5 * 3};
  const std::vector<std::int32_t> chain = prompt_with_prefix(100, 1);
  cached_session(model, chain, options_for(1), cache).run();
  ASSERT_EQ(cache.entries(), 3U);

  std::vector<std::int32_t> other = prompt_with_prefix(40, 2, 0);
  other[0] = (chain[0] + 1) % 50;  // a different first chunk
  cached_session(model, other, options_for(2), cache).run();
  EXPECT_EQ(cache.entries(), 3U);

  TransformerLM::DecodeState state = model.make_decode_state();
  EXPECT_EQ(cache.restore(chain, state), 2U);
}

// Two sessions share a 64-token prefix in one batched round; one is
// cancelled after its first prompt chunk and the other's output is unchanged.
TEST(PrefixCache, CancelledSharerLeavesTheOtherOutputUnchanged) {
  const TransformerLM model{long_context_config(), 351};
  PrefixCache cache{model, kChunk, slot_bytes(model)};
  const std::vector<std::int32_t> kept_prompt = prompt_with_prefix(100, 1);
  const std::vector<std::int32_t> cut_prompt = prompt_with_prefix(120, 2);
  nn::GenerateOptions cut_options = options_for(2);
  cut_options.cancel = CancelToken::make();
  std::vector<DecodeSession> sessions;
  sessions.push_back(cached_session(model, kept_prompt, options_for(1), cache));
  sessions.push_back(cached_session(model, cut_prompt, cut_options, cache));

  for (int round = 0; !sessions[0].done() || !sessions[1].done(); ++round) {
    if (round == 1) cut_options.cancel.cancel();  // mid-prefill
    std::vector<TransformerLM::DecodeSegment> segments;
    std::vector<DecodeSession*> stepped;
    for (DecodeSession& session : sessions) {
      if (const auto segment = session.advance()) {
        segments.push_back(*segment);
        stepped.push_back(&session);
      }
    }
    if (segments.empty()) continue;
    std::vector<std::vector<float>> logits = model.decode_batch(segments);
    for (std::size_t j = 0; j < stepped.size(); ++j) {
      stepped[j]->set_logits(std::move(logits[j]));
    }
  }
  EXPECT_TRUE(sessions[1].cancelled());
  EXPECT_TRUE(sessions[1].take_generated().empty());
  EXPECT_EQ(sessions[0].take_generated(), nn::generate(model, kept_prompt, options_for(1)));

  // The shared chunks both published are reused whole by a later sharer.
  const std::vector<std::int32_t> later = prompt_with_prefix(90, 3);
  DecodeSession reuse = cached_session(model, later, options_for(3), cache);
  EXPECT_EQ(reuse.prefill_reused(), 64U);
  EXPECT_EQ(reuse.run(), nn::generate(model, later, options_for(3)));
}

TEST(PrefixCache, DraftingSessionIgnoresTheCache) {
  const TransformerLM model{long_context_config(), 361};
  const TransformerLM draft = model.pruned(1, 2);
  PrefixCache cache{model, kChunk, slot_bytes(model)};
  const std::vector<std::int32_t> prompt = prompt_with_prefix(100, 1);
  cached_session(model, prompt, options_for(1), cache).run();
  const std::size_t entries = cache.entries();

  const std::vector<std::int32_t> sharer = prompt_with_prefix(110, 2);
  DecodeSession drafting{model, sharer, options_for(5), {-1}, kChunk,
                         &draft, 3, true, &cache};
  EXPECT_EQ(drafting.prefill_reused(), 0U);
  EXPECT_EQ(drafting.run(), nn::generate(model, sharer, options_for(5)));
  EXPECT_EQ(cache.entries(), entries);

  const TransformerLM other{long_context_config(), 362};
  EXPECT_THROW(cached_session(other, prompt, options_for(1), cache),
               std::invalid_argument);
}

// ---- serving ----------------------------------------------------------------

serve::Request request_with_prefix(std::size_t length, std::uint64_t salt,
                                   float temperature = 0.0F) {
  serve::Request request;
  request.prompt = prompt_with_prefix(length, salt);
  request.max_new_tokens = 6;
  request.temperature = temperature;
  request.seed = 900 + salt;
  return request;
}

std::vector<std::int32_t> reference_tokens(const TransformerLM& model,
                                           const serve::Request& request) {
  nn::GenerateOptions options = options_for(request.seed, request.temperature);
  options.max_new_tokens = request.max_new_tokens;
  return nn::generate(model, request.prompt, options);
}

const serve::Response& resolved(serve::Ticket& ticket) {
  EXPECT_TRUE(ticket.wait_for(60s)) << "request did not reach a terminal state";
  return ticket.wait();
}

// The cancelled request may be anywhere in its prefill when the cancel
// lands; whatever it published, the sharer after it decodes what a cold
// server would, and a third sharer restores the 64-token prefix.
TEST(PrefixServe, CancelledSharerLeavesTheOtherOutputUnchanged) {
  const TransformerLM model{long_context_config(), 371};
  serve::InferenceServer server{model, serve::ServerConfig{}};
  serve::Request cut = request_with_prefix(128, 1);
  cut.max_new_tokens = 30;
  const serve::TicketPtr cut_ticket = server.submit(cut);
  while (cut_ticket->state() == serve::RequestState::kQueued) {
    std::this_thread::sleep_for(100us);
  }
  cut_ticket->cancel();

  const serve::Request kept = request_with_prefix(100, 2);
  const serve::TicketPtr kept_ticket = server.submit(kept);
  const serve::Response& kept_response = resolved(*kept_ticket);
  ASSERT_EQ(kept_response.state, serve::RequestState::kCompleted) << kept_response.message;
  EXPECT_EQ(kept_response.tokens, reference_tokens(model, kept));
  const serve::Response& cut_response = resolved(*cut_ticket);
  EXPECT_TRUE(cut_response.state == serve::RequestState::kCancelled ||
              cut_response.state == serve::RequestState::kCompleted);

  const std::int64_t before = server.stats().prefill_tokens_reused;
  const serve::Request third = request_with_prefix(90, 3, 0.7F);
  const serve::TicketPtr third_ticket = server.submit(third);
  const serve::Response& third_response = resolved(*third_ticket);
  ASSERT_EQ(third_response.state, serve::RequestState::kCompleted);
  EXPECT_EQ(third_response.tokens, reference_tokens(model, third));
  EXPECT_EQ(server.stats().prefill_tokens_reused - before, 64);
}

// Greedy requests on a speculative server draft and never touch the cache;
// the sampled requests sharing the server use it as plain slots do.
TEST(PrefixServe, DraftingSlotsNeverTouchTheCache) {
  const TransformerLM model{long_context_config(), 381};
  const TransformerLM draft = model.pruned(1, 2);
  serve::ServerConfig config;
  config.spec_k = 3;
  serve::InferenceServer server{model, config, &draft};
  for (std::uint64_t salt = 1; salt <= 3; ++salt) {
    const serve::Request request = request_with_prefix(100, salt);
    const serve::TicketPtr ticket = server.submit(request);
    const serve::Response& response = resolved(*ticket);
    ASSERT_EQ(response.state, serve::RequestState::kCompleted) << response.message;
    EXPECT_EQ(response.tokens, reference_tokens(model, request));
  }
  EXPECT_EQ(server.stats().spec_requests, 3);
  EXPECT_EQ(server.stats().prefill_tokens_reused, 0);

  for (std::uint64_t salt = 4; salt <= 5; ++salt) {
    const serve::Request request = request_with_prefix(100, salt, 0.8F);
    const serve::TicketPtr ticket = server.submit(request);
    const serve::Response& response = resolved(*ticket);
    ASSERT_EQ(response.state, serve::RequestState::kCompleted) << response.message;
    EXPECT_EQ(response.tokens, reference_tokens(model, request));
  }
  EXPECT_EQ(server.stats().prefill_tokens_reused, 64);  // the second sampled one
}

}  // namespace
}  // namespace sdd
