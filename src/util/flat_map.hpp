// Flat containers for the decoder's query hot path.
//
// Lemma 2.6 charges a query |F|²·2^O(α)·log n units of certification and
// Dijkstra work; the node-based std::unordered_{map,set} the decoder first
// shipped with spent comparable time in the allocator. These replacements
// keep the same contracts with contiguous storage:
//   - FlatMaskMap: per-level protected-ball membership masks, built once
//     per PreparedFaults. Each label slot takes its vertex's mask with one
//     lookup, after which certifying an edge is an AND of two masks — so
//     this map is probed once per slot, not once per edge and fault.
//   - FlatDistMap: one fault center's (vertex, distance) list, probed only
//     to triangulate an owner below its net level (a handful of lookups
//     per label level). Open addressing keeps both maps at O(1) probes
//     over flat arrays (a binary search over a faithful ball of 10^5
//     points costs ~17 dependent cache misses per lookup).
//   - SortedSet: small fault/owner membership sets, binary-searched.
//   - EdgeAccumulator: the per-query min-merge of surviving sketch edges —
//     now the decoder's hottest structure; open-addressing index over a
//     dense entry vector, O(1) epoch-based clear, capacity retained across
//     queries so a reused (thread_local) instance stops allocating in
//     steady state. Iteration is in first-insertion order — deterministic
//     given a deterministic insertion sequence, which keeps repeated
//     queries bit-identical (unordered_map offered no such order).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace fsdl {

/// Immutable Vertex -> Dist map with an open-addressing probe table.
/// First insertion of a key wins (entries hold distinct keys in practice).
/// kNoVertex marks empty slots, so it is not a valid key.
class FlatDistMap {
 public:
  FlatDistMap() = default;
  explicit FlatDistMap(const std::vector<std::pair<Vertex, Dist>>& entries);

  /// Pointer to the mapped distance, or nullptr when absent.
  const Dist* find(Vertex key) const noexcept;

  std::size_t size() const noexcept { return size_; }

 private:
  // Parallel slot arrays; load factor <= 1/2, linear probing.
  std::vector<Vertex> keys_;
  std::vector<Dist> vals_;
  std::size_t mask_ = 0;  // slot count - 1 when non-empty, else 0
  std::size_t size_ = 0;
};

/// Immutable Vertex -> bitmask map (`words` 64-bit words per key) with an
/// open-addressing probe table. Built from (key, bit) pairs; a key's mask
/// is the OR of its bits. kNoVertex marks empty slots, so it is not a
/// valid key.
class FlatMaskMap {
 public:
  FlatMaskMap() = default;
  FlatMaskMap(std::size_t words,
              const std::vector<std::pair<Vertex, std::uint32_t>>& bits);

  /// The key's `words` mask words, or nullptr when absent (all zero).
  const std::uint64_t* find(Vertex key) const noexcept;

  std::size_t size() const noexcept { return size_; }

 private:
  void grow();

  // Slot s holds key keys_[s] and mask words masks_[s*words_, (s+1)*words_);
  // load factor <= 1/2, linear probing.
  std::vector<Vertex> keys_;
  std::vector<std::uint64_t> masks_;
  std::size_t words_ = 0;
  std::size_t mask_ = 0;  // slot count - 1 when non-empty, else 0
  std::size_t size_ = 0;
};

/// Immutable sorted membership set.
template <typename Key>
class SortedSet {
 public:
  SortedSet() = default;
  explicit SortedSet(std::vector<Key> keys) : keys_(std::move(keys)) {
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  }

  bool contains(Key key) const noexcept {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }
  bool empty() const noexcept { return keys_.empty(); }
  std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::vector<Key> keys_;
};

/// Reusable min-merging accumulator: packed edge key -> smallest weight.
class EdgeAccumulator {
 public:
  /// Forget all entries in O(1); keeps every allocation.
  void clear() noexcept {
    entries_.clear();
    if (++epoch_ == 0) {  // tag wrapped: hard-reset so stale slots can't match
      std::fill(tags_.begin(), tags_.end(), 0u);
      epoch_ = 1;
    }
  }

  /// Pre-size for ~n distinct keys.
  void reserve(std::size_t n);

  /// Insert key -> w, keeping the minimum weight on repeated keys.
  void keep_min(std::uint64_t key, Dist w);

  /// Entries in first-insertion order.
  const std::vector<std::pair<std::uint64_t, Dist>>& entries() const noexcept {
    return entries_;
  }
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  void grow(std::size_t min_slots);

  // Open-addressing index: slot s holds entry index pos_[s] for key keys_[s],
  // live iff tags_[s] == epoch_. Load factor kept <= 1/2.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> tags_;
  std::vector<std::pair<std::uint64_t, Dist>> entries_;
  std::size_t mask_ = 0;  // slot count - 1 when non-empty, else 0
  std::uint32_t epoch_ = 1;
};

}  // namespace fsdl
