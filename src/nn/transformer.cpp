#include "nn/transformer.hpp"

#include <cstring>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/fault.hpp"
#include "util/serialize.hpp"

namespace sdd::nn {
namespace {
constexpr std::string_view kModelMagic = "SDDMODEL";
constexpr std::uint32_t kModelVersion = 1;
}  // namespace

TransformerLM::TransformerLM(const ModelConfig& config, std::uint64_t seed)
    : config_{config}, final_norm_{config.d_model} {
  if (config.vocab_size <= 0) {
    throw std::invalid_argument("TransformerLM: vocab_size must be set");
  }
  if (config.d_model % config.n_heads != 0) {
    throw std::invalid_argument("TransformerLM: d_model must be divisible by n_heads");
  }
  Rng rng{seed};
  const float embed_std = 1.0F / std::sqrt(static_cast<float>(config.d_model));
  tok_embed_ = Tensor::randn(rng, Shape{config.vocab_size, config.d_model}, embed_std,
                             /*requires_grad=*/true);
  blocks_.reserve(static_cast<std::size_t>(config.n_layers));
  for (std::int64_t i = 0; i < config.n_layers; ++i) {
    Rng block_rng = rng.fork(static_cast<std::uint64_t>(i) + 1);
    blocks_.push_back(std::make_unique<TransformerBlock>(config, block_rng));
  }
}

Tensor TransformerLM::final_hidden(const std::vector<std::int32_t>& ids,
                                   std::int64_t batch, std::int64_t seq) const {
  if (static_cast<std::int64_t>(ids.size()) != batch * seq) {
    throw std::invalid_argument("TransformerLM::forward: id count != batch*seq");
  }
  Tensor x = ops::embedding(ids, tok_embed_, Shape{batch, seq});
  for (const auto& block : blocks_) x = block->forward(x);
  return final_norm_.forward(x, config_.rmsnorm_eps);
}

Tensor TransformerLM::forward(const std::vector<std::int32_t>& ids, std::int64_t batch,
                              std::int64_t seq) const {
  const Tensor h = final_hidden(ids, batch, seq);
  return ops::linear(h, tok_embed_);  // tied output head
}

std::vector<std::vector<float>> TransformerLM::hidden_states(
    const std::vector<std::int32_t>& ids, std::int64_t batch, std::int64_t seq) const {
  NoGradGuard no_grad;
  std::vector<std::vector<float>> states;
  states.reserve(blocks_.size() + 1);
  Tensor x = ops::embedding(ids, tok_embed_, Shape{batch, seq});
  states.emplace_back(x.data().begin(), x.data().end());
  for (const auto& block : blocks_) {
    x = block->forward(x);
    states.emplace_back(x.data().begin(), x.data().end());
  }
  return states;
}

void TransformerLM::DecodeState::reset() {
  for (LayerKVCache& cache : caches) cache.reset();
  position = 0;
}

void TransformerLM::DecodeState::rollback(std::int64_t target) {
  if (target < 0 || target > position) {
    throw std::invalid_argument("DecodeState::rollback: position " +
                                std::to_string(target) +
                                " out of range (current " +
                                std::to_string(position) + ")");
  }
  for (LayerKVCache& cache : caches) cache.length = target;
  position = target;
}

TransformerLM::DecodeState TransformerLM::make_decode_state() const {
  DecodeState state;
  state.caches.resize(blocks_.size());
  const auto cache_size =
      static_cast<std::size_t>(config_.max_seq_len * config_.d_model);
  // Guarded allocation: one decode slot costs 2 * cache_size floats per
  // layer; the alloc_fail injector can fail it with resource_exhausted so
  // the serving layer's KV-budget degradation path is testable.
  fault::on_alloc(blocks_.size() * 2 * cache_size * sizeof(float));
  // Pin the RoPE table for the whole session up front so per-token decode
  // steps never hit the table-cache mutex or trigger a rebuild.
  const auto rope = kernels::RopeTable::get(
      config_.d_model / config_.n_heads, config_.rope_base, config_.max_seq_len);
  for (LayerKVCache& cache : state.caches) {
    cache.keys.assign(cache_size, 0.0F);
    cache.values.assign(cache_size, 0.0F);
    cache.rope = rope;
    cache.length = 0;
  }
  return state;
}

std::vector<std::vector<float>> TransformerLM::decode_batch(
    std::span<const DecodeSegment> segments) const {
  const std::vector<float> x = run_segments(segments);
  std::vector<std::vector<float>> result(segments.size());
  if (x.empty()) return result;
  const std::int64_t channels = config_.d_model;
  const std::int64_t vocab = config_.vocab_size;
  // The LM head runs once over every requested row: each segment's last
  // row, or all of them for an all_logits segment.
  std::vector<float> picked;
  std::int64_t row = 0;
  for (const DecodeSegment& seg : segments) {
    const auto count = static_cast<std::int64_t>(seg.tokens.size());
    row += count;
    if (count == 0) continue;
    const float* first = x.data() + (row - (seg.all_logits ? count : 1)) * channels;
    picked.insert(picked.end(), first, x.data() + row * channels);
  }
  const std::vector<float> logits =
      head_logits(picked.data(), static_cast<std::int64_t>(picked.size()) / channels);
  const float* next = logits.data();
  for (std::size_t s = 0; s < segments.size(); ++s) {
    if (segments[s].tokens.empty()) continue;
    const std::int64_t rows =
        segments[s].all_logits ? static_cast<std::int64_t>(segments[s].tokens.size()) : 1;
    result[s].assign(next, next + rows * vocab);
    next += rows * vocab;
  }
  return result;
}

std::vector<float> TransformerLM::prefill(DecodeState& state,
                                          std::span<const std::int32_t> tokens) const {
  const DecodeSegment segment{&state, tokens};
  return std::move(decode_batch({&segment, 1}).front());
}

std::vector<float> TransformerLM::decode_step(DecodeState& state,
                                              std::int32_t token) const {
  return prefill(state, std::span<const std::int32_t>{&token, 1});
}

std::vector<float> TransformerLM::decode_span(
    DecodeState& state, std::span<const std::int32_t> tokens) const {
  const DecodeSegment segment{&state, tokens, /*all_logits=*/true};
  return std::move(decode_batch({&segment, 1}).front());
}

std::vector<float> TransformerLM::run_segments(
    std::span<const DecodeSegment> segments) const {
  // Validate every segment before any state changes, so a bad segment
  // cannot leave some sessions advanced and others not.
  std::int64_t rows = 0;
  for (const DecodeSegment& seg : segments) {
    const auto count = static_cast<std::int64_t>(seg.tokens.size());
    if (seg.state->position + count > config_.max_seq_len) {
      throw std::logic_error("decode: exceeded max sequence length");
    }
    for (const std::int32_t token : seg.tokens) {
      if (token < 0 || token >= config_.vocab_size) {
        throw std::invalid_argument("decode: token out of range");
      }
    }
    rows += count;
  }
  if (rows == 0) return {};

  const std::int64_t channels = config_.d_model;
  std::vector<float> x(static_cast<std::size_t>(rows * channels));
  float* row = x.data();
  std::vector<KVSegment> layer;
  for (const DecodeSegment& seg : segments) {
    for (const std::int32_t token : seg.tokens) {
      std::memcpy(row, tok_embed_.data().data() + token * channels,
                  static_cast<std::size_t>(channels) * sizeof(float));
      row += channels;
    }
    if (!seg.tokens.empty()) {
      layer.push_back({nullptr, seg.state->position,
                       static_cast<std::int64_t>(seg.tokens.size())});
    }
  }

  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    std::size_t s = 0;
    for (const DecodeSegment& seg : segments) {
      if (!seg.tokens.empty()) layer[s++].cache = &seg.state->caches[l];
    }
    blocks_[l]->step_segments(x.data(), layer);
  }
  for (const DecodeSegment& seg : segments) {
    seg.state->position += static_cast<std::int64_t>(seg.tokens.size());
  }
  return x;
}

std::vector<float> TransformerLM::head_logits(const float* x, std::int64_t rows) const {
  const std::int64_t channels = config_.d_model;
  std::vector<float> normed(static_cast<std::size_t>(rows * channels));
  final_norm_.apply(x, normed.data(), rows, config_.rmsnorm_eps);
  std::vector<float> logits(static_cast<std::size_t>(rows * config_.vocab_size));
  kernels::gemm_nt_rowwise(normed.data(), tok_embed_.data().data(), logits.data(), rows,
                           channels, config_.vocab_size, /*accumulate=*/false);
  return logits;
}

TransformerLM TransformerLM::clone() const {
  TransformerLM copy;
  copy.config_ = config_;
  copy.tok_embed_ = tok_embed_.clone();
  copy.final_norm_ = final_norm_.clone();
  copy.blocks_.reserve(blocks_.size());
  for (const auto& block : blocks_) {
    copy.blocks_.push_back(std::make_unique<TransformerBlock>(block->clone()));
  }
  return copy;
}

TransformerLM TransformerLM::pruned(std::int64_t start, std::int64_t n) const {
  if (start < 0 || n <= 0 || start + n > n_layers()) {
    throw std::invalid_argument("pruned: block [" + std::to_string(start) + ", " +
                                std::to_string(start + n) + ") out of range for " +
                                std::to_string(n_layers()) + " layers");
  }
  TransformerLM copy;
  copy.config_ = config_;
  copy.config_.n_layers = n_layers() - n;
  copy.tok_embed_ = tok_embed_.clone();
  copy.final_norm_ = final_norm_.clone();
  copy.blocks_.reserve(static_cast<std::size_t>(copy.config_.n_layers));
  for (std::int64_t i = 0; i < n_layers(); ++i) {
    if (i >= start && i < start + n) continue;  // excised block
    copy.blocks_.push_back(std::make_unique<TransformerBlock>(
        blocks_[static_cast<std::size_t>(i)]->clone()));
  }
  return copy;
}

ParamList TransformerLM::parameters() const {
  ParamList params;
  params.push_back({"tok_embed.weight", tok_embed_});
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i]->collect_parameters("blocks." + std::to_string(i), params);
  }
  final_norm_.collect_parameters("final_norm", params);
  return params;
}

ParamList TransformerLM::trainable_parameters() const {
  ParamList params;
  if (tok_embed_.requires_grad()) params.push_back({"tok_embed.weight", tok_embed_});
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i]->collect_trainable("blocks." + std::to_string(i), params);
  }
  final_norm_.collect_trainable("final_norm", params);
  return params;
}

std::int64_t TransformerLM::param_count() const { return nn::param_count(parameters()); }

std::uint64_t TransformerLM::weight_hash() const {
  std::uint64_t h = config_.hash();
  for (const NamedParam& p : parameters()) {
    h = hash_combine(h, fnv1a(p.name));
    const auto data = p.tensor.data();
    const auto* bytes = reinterpret_cast<const std::byte*>(data.data());
    h = hash_combine(h, fnv1a_bytes({bytes, data.size() * sizeof(float)}));
  }
  return h;
}

void TransformerLM::set_trainable(bool trainable) {
  for (const NamedParam& p : parameters()) p.tensor.raw()->requires_grad = trainable;
}

void TransformerLM::attach_lora(const LoraConfig& config, std::uint64_t seed) {
  if (has_lora()) throw std::logic_error("attach_lora: adapters already attached");
  set_trainable(false);  // freeze everything; adapters are the only trainables
  Rng rng{seed};
  for (auto& block : blocks_) {
    if (config.on_attention) {
      block->attention().wq().attach_lora(config.rank, config.alpha, rng);
      block->attention().wk().attach_lora(config.rank, config.alpha, rng);
      block->attention().wv().attach_lora(config.rank, config.alpha, rng);
      block->attention().wo().attach_lora(config.rank, config.alpha, rng);
    }
    if (config.on_mlp) {
      block->mlp().w_gate().attach_lora(config.rank, config.alpha, rng);
      block->mlp().w_up().attach_lora(config.rank, config.alpha, rng);
      block->mlp().w_down().attach_lora(config.rank, config.alpha, rng);
    }
  }
}

void TransformerLM::merge_lora() {
  for (auto& block : blocks_) {
    block->attention().wq().merge_lora();
    block->attention().wk().merge_lora();
    block->attention().wv().merge_lora();
    block->attention().wo().merge_lora();
    block->mlp().w_gate().merge_lora();
    block->mlp().w_up().merge_lora();
    block->mlp().w_down().merge_lora();
  }
  set_trainable(true);
}

bool TransformerLM::has_lora() const {
  for (const auto& block : blocks_) {
    if (block->attention().wq().has_lora()) return true;
    if (block->mlp().w_gate().has_lora()) return true;
  }
  return false;
}

void TransformerLM::save(const std::filesystem::path& path) const {
  if (has_lora()) {
    throw std::logic_error("save: merge or discard LoRA adapters before saving");
  }
  BinaryWriter writer{path};
  writer.write_magic(kModelMagic, kModelVersion);
  writer.write_i64(config_.vocab_size);
  writer.write_i64(config_.d_model);
  writer.write_i64(config_.n_heads);
  writer.write_i64(config_.n_layers);
  writer.write_i64(config_.d_ff);
  writer.write_i64(config_.max_seq_len);
  writer.write_f32(config_.rope_base);
  writer.write_f32(config_.rmsnorm_eps);

  const ParamList params = parameters();
  writer.write_u64(params.size());
  for (const NamedParam& p : params) {
    writer.write_string(p.name);
    const Shape& shape = p.tensor.shape();
    writer.write_u64(shape.size());
    for (std::int64_t d : shape) writer.write_i64(d);
    const auto data = p.tensor.data();
    writer.write_vector(std::vector<float>(data.begin(), data.end()));
  }
  writer.flush();
}

TransformerLM TransformerLM::load(const std::filesystem::path& path) {
  BinaryReader reader{path};
  reader.expect_magic(kModelMagic, kModelVersion);
  ModelConfig config;
  config.vocab_size = reader.read_i64();
  config.d_model = reader.read_i64();
  config.n_heads = reader.read_i64();
  config.n_layers = reader.read_i64();
  config.d_ff = reader.read_i64();
  config.max_seq_len = reader.read_i64();
  config.rope_base = reader.read_f32();
  config.rmsnorm_eps = reader.read_f32();

  TransformerLM model{config, /*seed=*/0};
  ParamList params = model.parameters();
  const std::uint64_t count = reader.read_u64();
  if (count != params.size()) {
    throw SerializeError("load: parameter count mismatch in " + path.string());
  }
  for (NamedParam& p : params) {
    const std::string name = reader.read_string();
    if (name != p.name) {
      throw SerializeError("load: parameter order mismatch, expected " + p.name +
                           ", found " + name);
    }
    const std::uint64_t ndim = reader.read_u64();
    Shape shape(ndim);
    for (std::uint64_t d = 0; d < ndim; ++d) shape[d] = reader.read_i64();
    if (shape != p.tensor.shape()) {
      throw SerializeError("load: shape mismatch for " + name);
    }
    const std::vector<float> values = reader.read_vector<float>();
    p.tensor.copy_from(values);
  }
  return model;
}

}  // namespace sdd::nn
