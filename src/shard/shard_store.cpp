#include "shard/shard_store.hpp"

#include <stdexcept>
#include <string>

namespace fsdl::shard {

std::vector<ForbiddenSetLabeling> ShardStore::split(
    const ForbiddenSetLabeling& scheme, std::uint32_t shard_count,
    std::uint64_t ring_seed, std::uint32_t ring_points) {
  if (scheme.partition_.sharded()) {
    throw std::invalid_argument(
        "split: input is already a shard (shard " +
        std::to_string(scheme.partition_.shard_id) + " of " +
        std::to_string(scheme.partition_.shard_count) + "); merge first");
  }
  const PartitionInfo ring{0, shard_count, ring_seed, ring_points};
  const Partitioner part(ring);  // validates shard_count/ring_points
  const Vertex n = scheme.num_vertices();

  std::vector<ForbiddenSetLabeling> out(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    ForbiddenSetLabeling& piece = out[s];
    piece.params_ = scheme.params_;
    piece.top_level_ = scheme.top_level_;
    piece.vertex_bits_ = scheme.vertex_bits_;
    piece.codec_ = scheme.codec_;
    piece.partition_ = ring;
    piece.partition_.shard_id = s;
    piece.labels_.assign(n, BitWriter{});
  }
  for (Vertex v = 0; v < n; ++v) {
    out[part.owner(v)].labels_[v] = scheme.labels_[v];
  }
  // Each piece keeps every H_i (small) and its own vertices' hub lists. A
  // scheme without a store (loaded from a file) leaves the pieces without
  // one too; their oracles rebuild it from the piece's labels.
  if (scheme.store_ != nullptr) {
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      out[s].store_ = std::make_shared<const LevelGraphStore>(
          scheme.store_->subset([&](Vertex v) { return part.owner(v) == s; }));
    }
  }
  return out;
}

ForbiddenSetLabeling ShardStore::merge(
    const std::vector<ForbiddenSetLabeling>& shards) {
  if (shards.empty()) throw std::invalid_argument("merge: no shards given");
  const ForbiddenSetLabeling& first = shards.front();
  const PartitionInfo& ring = first.partition_;
  const std::uint32_t k = ring.shard_count;
  if (shards.size() != k) {
    throw std::invalid_argument(
        "merge: have " + std::to_string(shards.size()) + " shard(s) of a " +
        std::to_string(k) + "-shard split");
  }

  std::vector<bool> seen(k, false);
  for (const ForbiddenSetLabeling& s : shards) {
    if (!s.partition_.same_ring(ring)) {
      throw std::invalid_argument(
          "merge: shards come from different rings (shard count / seed / "
          "ring points disagree)");
    }
    if (seen[s.partition_.shard_id]) {
      throw std::invalid_argument("merge: duplicate shard " +
                                  std::to_string(s.partition_.shard_id));
    }
    seen[s.partition_.shard_id] = true;
    const bool same_scheme =
        s.params_.epsilon == first.params_.epsilon &&
        s.params_.c == first.params_.c &&
        s.params_.faithful_radii == first.params_.faithful_radii &&
        s.params_.lowest_level_all_pairs ==
            first.params_.lowest_level_all_pairs &&
        s.top_level_ == first.top_level_ &&
        s.vertex_bits_ == first.vertex_bits_ && s.codec_ == first.codec_ &&
        s.labels_.size() == first.labels_.size();
    if (!same_scheme) {
      throw std::invalid_argument(
          "merge: shards were cut from different labelings (scheme "
          "description disagrees)");
    }
  }

  const Partitioner part(ring);
  const Vertex n = first.num_vertices();
  ForbiddenSetLabeling merged;
  merged.params_ = first.params_;
  merged.top_level_ = first.top_level_;
  merged.vertex_bits_ = first.vertex_bits_;
  merged.codec_ = first.codec_;
  // partition_ stays default-constructed (unsharded): the merged labeling
  // re-serializes byte-identically to the pre-split original.
  merged.labels_.assign(n, BitWriter{});

  for (const ForbiddenSetLabeling& s : shards) {
    const std::uint32_t id = s.partition_.shard_id;
    for (Vertex v = 0; v < n; ++v) {
      const BitWriter& label = s.labels_[v];
      if (label.bit_size() == 0) continue;
      if (part.owner(v) != id) {
        throw std::invalid_argument(
            "merge: shard " + std::to_string(id) + " stores vertex " +
            std::to_string(v) + " owned by shard " +
            std::to_string(part.owner(v)));
      }
      merged.labels_[v] = label;
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    if (merged.labels_[v].bit_size() == 0) {
      throw std::invalid_argument("merge: no shard stores vertex " +
                                  std::to_string(v));
    }
  }
  return merged;
}

}  // namespace fsdl::shard
