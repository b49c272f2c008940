// Shared-prefix reuse of prompt K/V rows across decode sessions of one model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <span>
#include <vector>

#include "nn/transformer.hpp"

namespace sdd::nn {

// Immutable K/V rows of whole prompt chunks, one entry per aligned chunk,
// keyed by the whole token chain from position 0 to the chunk's end. Span
// prefill writes the same rows however a prompt is chunked, so a row
// depends only on the tokens up to its position and a restored chain is
// bitwise what a cold prefill would have written.
//
// Lookup compares the stored tokens of every candidate; there is no hash to
// collide. Entries are evicted least recently used once their K/V bytes
// would pass `byte_cap`. A restore refreshes its whole chain and a publish
// lands behind its parent, so a parent is always more recent than its
// children: eviction only ever removes a leaf, and a chunk is published only
// while its parent chain is cached, so no entry is unreachable. Not
// thread-safe: one owner (a server's scheduler thread) uses it.
class PrefixCache {
 public:
  PrefixCache(const TransformerLM& model, std::size_t chunk, std::int64_t byte_cap);

  // Copies the longest cached chain of whole chunks of `tokens` into the
  // empty `state`, advances it past them and refreshes the chain. Returns
  // the chunks restored.
  std::size_t restore(std::span<const std::int32_t> tokens,
                      TransformerLM::DecodeState& state);
  // Caches chunk `index` of `tokens` from `state`, which must hold its rows.
  // A no-op when the chunk is cached already, when its parent chain is not,
  // or when it cannot fit without evicting that chain.
  void publish(std::span<const std::int32_t> tokens, std::size_t index,
               const TransformerLM::DecodeState& state);

  const TransformerLM& model() const { return *model_; }
  std::size_t chunk() const { return chunk_; }
  std::int64_t bytes() const { return bytes_; }  // K/V rows held
  std::size_t entries() const { return lru_.size(); }

 private:
  struct Entry {
    std::vector<std::int32_t> chain;  // tokens [0, (index + 1) * chunk)
    std::vector<float> kv;            // per layer: keys then values, chunk rows each
  };
  using Iter = std::list<Entry>::iterator;

  // The cached chain of whole chunks of `tokens`, root first.
  std::vector<Iter> find_chain(std::span<const std::int32_t> tokens);
  // Moves `chain` to the front of the LRU order, root first.
  void touch(const std::vector<Iter>& chain);
  std::size_t rows_floats() const;  // floats in one layer's keys (or values)

  const TransformerLM* model_;
  std::size_t chunk_;
  std::int64_t byte_cap_;
  std::int64_t entry_bytes_;
  std::int64_t bytes_ = 0;
  std::list<Entry> lru_;  // most recently used first
};

}  // namespace sdd::nn
