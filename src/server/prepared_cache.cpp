#include "server/prepared_cache.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace fsdl::server {

FaultKey canonical_key(const FaultSet& faults) {
  FaultKey key;
  key.vertices = faults.vertices();
  std::sort(key.vertices.begin(), key.vertices.end());
  key.edges.reserve(faults.edges().size());
  for (const auto& [a, b] : faults.edges()) {
    key.edges.push_back(FaultSet::edge_key(a, b));
  }
  std::sort(key.edges.begin(), key.edges.end());
  return key;
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t fault_hash(const FaultKey& key) {
  std::uint64_t h = splitmix64(0x6673646Cull /* "fsdl" */);
  for (Vertex v : key.vertices) h = splitmix64(h ^ v);
  h = splitmix64(h ^ 0xEDEDEDEDull);  // separator: {v:1} != {e keyed 1}
  for (std::uint64_t e : key.edges) h = splitmix64(h ^ e);
  return h;
}

PreparedCache::PreparedCache(const ForbiddenSetOracle& oracle,
                             std::size_t capacity, std::size_t shards)
    : oracle_(&oracle) {
  if (capacity == 0) capacity = 1;
  if (shards == 0) shards = 1;
  shards = std::min(shards, capacity);
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const PreparedFaults> PreparedCache::get(
    const FaultSet& faults) {
  FaultKey key = canonical_key(faults);
  const std::uint64_t h = fault_hash(key);
  Shard& shard = *shards_[h % shards_.size()];

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto chain = shard.index.find(h);
    if (chain != shard.index.end()) {
      for (auto it : chain->second) {
        if (it->key == key) {
          ++shard.hits;
          FSDL_COUNT(kPreparedCacheHit, 1);
          shard.lru.splice(shard.lru.begin(), shard.lru, it);
          return it->prepared;
        }
      }
    }
    ++shard.misses;
    FSDL_COUNT(kPreparedCacheMiss, 1);
  }

  // Build outside the lock: an O(|F|²) certification must not serialize the
  // whole shard. Concurrent same-key builders are tolerated (see header).
  auto prepared =
      std::make_shared<const PreparedFaults>(oracle_->prepare(faults));

  std::lock_guard<std::mutex> lock(shard.mu);
  // Re-check: a racing builder may have inserted while we built.
  if (auto chain = shard.index.find(h); chain != shard.index.end()) {
    for (auto it : chain->second) {
      if (it->key == key) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        return it->prepared;
      }
    }
  }
  shard.lru.push_front(Entry{std::move(key), prepared});
  shard.index[h].push_back(shard.lru.begin());
  shard.bytes += prepared->bytes();
  if (shard.lru.size() > per_shard_capacity_) {
    const auto victim = std::prev(shard.lru.end());
    const std::uint64_t vh = fault_hash(victim->key);
    auto& vchain = shard.index[vh];
    vchain.erase(std::find(vchain.begin(), vchain.end(), victim));
    if (vchain.empty()) shard.index.erase(vh);
    shard.bytes -= victim->prepared->bytes();
    shard.lru.pop_back();
    ++shard.evictions;
  }
  return prepared;
}

PreparedCache::Stats PreparedCache::stats() const {
  Stats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.evictions += shard->evictions;
    out.entries += shard->lru.size();
    out.bytes += shard->bytes;
  }
  return out;
}

}  // namespace fsdl::server
