#include "util/flat_map.hpp"

#include <algorithm>

namespace fsdl {
namespace {

/// splitmix64 finalizer — avalanches the packed (x, y) endpoint pairs,
/// whose low bits alone are heavily clustered.
inline std::size_t hash_key(std::uint64_t key) noexcept {
  key += 0x9e3779b97f4a7c15ull;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(key ^ (key >> 31));
}

}  // namespace

FlatDistMap::FlatDistMap(const std::vector<std::pair<Vertex, Dist>>& entries) {
  if (entries.empty()) return;
  std::size_t cap = 16;
  while (cap < entries.size() * 2) cap <<= 1;
  keys_.assign(cap, kNoVertex);
  vals_.resize(cap);
  mask_ = cap - 1;
  for (const auto& [k, v] : entries) {
    std::size_t slot = hash_key(k) & mask_;
    while (keys_[slot] != kNoVertex && keys_[slot] != k) {
      slot = (slot + 1) & mask_;
    }
    if (keys_[slot] == k) continue;  // first insertion wins
    keys_[slot] = k;
    vals_[slot] = v;
    ++size_;
  }
}

const Dist* FlatDistMap::find(Vertex key) const noexcept {
  if (size_ == 0) return nullptr;
  std::size_t slot = hash_key(key) & mask_;
  while (keys_[slot] != kNoVertex) {
    if (keys_[slot] == key) return &vals_[slot];
    slot = (slot + 1) & mask_;
  }
  return nullptr;
}

FlatMaskMap::FlatMaskMap(
    std::size_t words,
    const std::vector<std::pair<Vertex, std::uint32_t>>& bits)
    : words_(words) {
  // Sized by distinct keys, not by pairs: the pairs of one vertex (one per
  // ball holding it) share a slot, so the table grows as keys arrive.
  for (const auto& [k, bit] : bits) {
    if ((size_ + 1) * 2 > keys_.size()) grow();
    std::size_t slot = hash_key(k) & mask_;
    while (keys_[slot] != kNoVertex && keys_[slot] != k) {
      slot = (slot + 1) & mask_;
    }
    if (keys_[slot] == kNoVertex) {
      keys_[slot] = k;
      ++size_;
    }
    masks_[slot * words_ + bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
}

void FlatMaskMap::grow() {
  const std::size_t cap = keys_.empty() ? 16 : keys_.size() * 2;
  std::vector<Vertex> old_keys(cap, kNoVertex);
  std::vector<std::uint64_t> old_masks(cap * words_, 0);
  old_keys.swap(keys_);
  old_masks.swap(masks_);
  mask_ = cap - 1;
  for (std::size_t s = 0; s < old_keys.size(); ++s) {
    if (old_keys[s] == kNoVertex) continue;
    std::size_t slot = hash_key(old_keys[s]) & mask_;
    while (keys_[slot] != kNoVertex) slot = (slot + 1) & mask_;
    keys_[slot] = old_keys[s];
    std::copy_n(old_masks.data() + s * words_, words_,
                masks_.data() + slot * words_);
  }
}

const std::uint64_t* FlatMaskMap::find(Vertex key) const noexcept {
  if (size_ == 0) return nullptr;
  std::size_t slot = hash_key(key) & mask_;
  while (keys_[slot] != kNoVertex) {
    if (keys_[slot] == key) return &masks_[slot * words_];
    slot = (slot + 1) & mask_;
  }
  return nullptr;
}

void EdgeAccumulator::grow(std::size_t min_slots) {
  std::size_t cap = 16;
  while (cap < min_slots) cap <<= 1;
  keys_.assign(cap, 0);
  pos_.assign(cap, 0);
  tags_.assign(cap, 0);
  mask_ = cap - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    std::size_t slot = hash_key(entries_[e].first) & mask_;
    while (tags_[slot] == epoch_) slot = (slot + 1) & mask_;
    tags_[slot] = epoch_;
    keys_[slot] = entries_[e].first;
    pos_[slot] = static_cast<std::uint32_t>(e);
  }
}

void EdgeAccumulator::reserve(std::size_t n) {
  entries_.reserve(n);
  if (n * 2 > mask_ + 1) grow(n * 2);
}

void EdgeAccumulator::keep_min(std::uint64_t key, Dist w) {
  if ((entries_.size() + 1) * 2 > mask_ + 1) {
    grow(mask_ == 0 ? 16 : (mask_ + 1) * 2);
  }
  std::size_t slot = hash_key(key) & mask_;
  while (tags_[slot] == epoch_) {
    if (keys_[slot] == key) {
      Dist& val = entries_[pos_[slot]].second;
      if (w < val) val = w;
      return;
    }
    slot = (slot + 1) & mask_;
  }
  tags_[slot] = epoch_;
  keys_[slot] = key;
  pos_[slot] = static_cast<std::uint32_t>(entries_.size());
  entries_.emplace_back(key, w);
}

}  // namespace fsdl
