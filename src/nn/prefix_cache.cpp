#include "nn/prefix_cache.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace sdd::nn {

PrefixCache::PrefixCache(const TransformerLM& model, std::size_t chunk,
                         std::int64_t byte_cap)
    : model_{&model},
      chunk_{chunk},
      byte_cap_{byte_cap},
      entry_bytes_{model.n_layers() * 2 *
                   static_cast<std::int64_t>(chunk * model.config().d_model *
                                             sizeof(float))} {
  if (chunk == 0) throw std::invalid_argument("PrefixCache: chunk must be positive");
}

std::size_t PrefixCache::rows_floats() const {
  return chunk_ * static_cast<std::size_t>(model_->config().d_model);
}

std::vector<PrefixCache::Iter> PrefixCache::find_chain(
    std::span<const std::int32_t> tokens) {
  // The cap admits about max_seq / chunk entries, so a scan that compares
  // whole chains is cheaper than keeping an index in step with evictions.
  std::vector<Iter> chain;
  for (std::size_t end = chunk_; end <= tokens.size(); end += chunk_) {
    const std::span<const std::int32_t> prefix = tokens.first(end);
    const auto match = std::ranges::find_if(lru_, [&](const Entry& entry) {
      return std::ranges::equal(entry.chain, prefix);
    });
    if (match == lru_.end()) break;
    chain.push_back(match);
  }
  return chain;
}

void PrefixCache::touch(const std::vector<Iter>& chain) {
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    lru_.splice(lru_.begin(), lru_, *it);
  }
}

std::size_t PrefixCache::restore(std::span<const std::int32_t> tokens,
                                 TransformerLM::DecodeState& state) {
  if (state.position != 0 ||
      state.caches.size() != static_cast<std::size_t>(model_->n_layers())) {
    throw std::invalid_argument("PrefixCache::restore: state is not a fresh state of the model");
  }
  const std::vector<Iter> chain = find_chain(tokens);
  const std::size_t rows = rows_floats();
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const float* kv = chain[i]->kv.data();
    for (LayerKVCache& cache : state.caches) {
      std::copy_n(kv, rows, cache.keys.begin() + static_cast<std::ptrdiff_t>(i * rows));
      std::copy_n(kv + rows, rows,
                  cache.values.begin() + static_cast<std::ptrdiff_t>(i * rows));
      kv += 2 * rows;
    }
  }
  const auto restored = static_cast<std::int64_t>(chain.size() * chunk_);
  for (LayerKVCache& cache : state.caches) cache.length = restored;
  state.position = restored;
  touch(chain);
  return chain.size();
}

void PrefixCache::publish(std::span<const std::int32_t> tokens, std::size_t index,
                          const TransformerLM::DecodeState& state) {
  const std::size_t end = (index + 1) * chunk_;
  if (tokens.size() < end || state.position < static_cast<std::int64_t>(end)) {
    throw std::invalid_argument("PrefixCache::publish: the state does not hold the chunk");
  }
  const std::vector<Iter> chain = find_chain(tokens.first(end));
  if (chain.size() != index || entry_bytes_ > byte_cap_) return;
  touch(chain);
  std::vector<float> kv;
  while (bytes_ + entry_bytes_ > byte_cap_) {
    if (lru_.size() <= index) return;  // only the parent chain is left
    kv = std::move(lru_.back().kv);   // the evicted leaf's buffer is reused
    lru_.pop_back();
    bytes_ -= entry_bytes_;
  }
  const std::size_t rows = rows_floats();
  kv.resize(state.caches.size() * 2 * rows);
  float* out = kv.data();
  for (const LayerKVCache& cache : state.caches) {
    const auto from = static_cast<std::ptrdiff_t>(index * rows);
    out = std::copy_n(cache.keys.begin() + from, rows, out);
    out = std::copy_n(cache.values.begin() + from, rows, out);
  }
  // Behind its parent chain, which touch() put first, so the parent stays
  // the more recent of the two.
  lru_.insert(std::next(lru_.begin(), static_cast<std::ptrdiff_t>(index)),
              Entry{{tokens.begin(), tokens.begin() + static_cast<std::ptrdiff_t>(end)},
                    std::move(kv)});
  bytes_ += entry_bytes_;
}

}  // namespace sdd::nn
