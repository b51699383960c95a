// Sharded LRU cache of PreparedFaults, keyed by the canonical fault set.
//
// The whole point of the serving layer: Lemma 2.6's O(label·|F|²)
// certification cost is paid once per *distinct* fault set, not once per
// query. A road-closure workload has few live closure sets and many (s, t)
// pairs, so nearly every query after the first is a cache hit that only
// filters two endpoint labels and runs Dijkstra (the E14 amortization,
// now shared across connections).
//
// Sharding: the canonical 64-bit fault-set hash picks a shard; each shard
// has its own mutex + LRU list, so unrelated fault sets never contend.
// Entries are handed out as shared_ptr, so eviction never invalidates an
// in-flight query. A miss builds *outside* the shard lock — two threads
// racing on the same new fault set may both build; the second insert is
// dropped in favour of the first (harmless duplicate work, no blocking of
// every other fault set behind one O(|F|²) build).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/oracle.hpp"
#include "graph/fault_view.hpp"

namespace fsdl::server {

/// Order-independent canonical key of a fault set (sorted vertices, sorted
/// undirected edge keys). Equal sets => equal keys, and vice versa.
struct FaultKey {
  std::vector<Vertex> vertices;
  std::vector<std::uint64_t> edges;

  bool operator==(const FaultKey&) const = default;
};

FaultKey canonical_key(const FaultSet& faults);

/// 64-bit mixing hash of a canonical key (splitmix64 over the elements).
std::uint64_t fault_hash(const FaultKey& key);

class PreparedCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    /// Heap bytes of the cached PreparedFaults (PreparedFaults::bytes()).
    std::size_t bytes = 0;
    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// capacity: max cached fault sets across all shards (>= 1);
  /// shards: power of two recommended; each shard holds capacity/shards.
  PreparedCache(const ForbiddenSetOracle& oracle, std::size_t capacity,
                std::size_t shards = 8);

  /// The PreparedFaults for `faults`, building and inserting on miss.
  std::shared_ptr<const PreparedFaults> get(const FaultSet& faults);

  Stats stats() const;

 private:
  struct Entry {
    FaultKey key;
    std::shared_ptr<const PreparedFaults> prepared;
  };
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>>
        index;  // hash -> entries (collision chain)
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Σ bytes() over `lru`, kept on insert and evict.
    std::size_t bytes = 0;
  };

  const ForbiddenSetOracle* oracle_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace fsdl::server
