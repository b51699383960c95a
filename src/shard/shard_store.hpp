// Cutting a labeling into per-shard label files and reassembling them.
//
// A shard file is a full-width ForbiddenSetLabeling (same n, params,
// levels, codec as the original) whose label vector is sparse: only the
// vertices the shard owns under the consistent-hash ring carry bits, the
// rest are empty slots. Persistence (core/serialize.cpp, format v3) stores
// only the owned records plus the partition identity, so K shard files
// together cost the same label bytes as the one original file.
//
// split hands each piece the full H_i of the level-graph store plus its
// own vertices' hub lists; merge leaves the store to be rebuilt (and
// checked) from the merged labels.
//
// split → serve → merge is round-trip exact: merging all K shards of a
// split yields a labeling that re-serializes byte-identically to the
// original file (asserted by shard_test and by the shard_pipeline ctest).
// merge() is deliberately strict — duplicate shards, mixed rings, mixed
// schemes, overlapping or missing labels are all hard errors, because a
// silently tolerated mismatch here would surface later as a wrong
// distance.
#pragma once

#include <cstdint>
#include <vector>

#include "core/labeling.hpp"
#include "shard/partition.hpp"
#include "util/bitstream.hpp"
#include "util/types.hpp"

namespace fsdl::shard {

class ShardStore {
 public:
  /// Cut an unsharded labeling into shard_count sparse labelings,
  /// result[s] owning exactly the vertices with owner(v) == s. Throws
  /// std::invalid_argument if scheme is already sharded or shard_count is
  /// 0; shard_count == 1 returns a single unsharded copy.
  static std::vector<ForbiddenSetLabeling> split(
      const ForbiddenSetLabeling& scheme, std::uint32_t shard_count,
      std::uint64_t ring_seed = kDefaultRingSeed,
      std::uint32_t ring_points = kDefaultRingPoints);

  /// Reassemble the original labeling from all K shards of one split
  /// (any order). Validates: every shard id 0..K-1 present exactly once,
  /// identical ring and scheme description, each vertex's label stored by
  /// exactly its ring owner. Throws std::invalid_argument on any mismatch.
  static ForbiddenSetLabeling merge(
      const std::vector<ForbiddenSetLabeling>& shards);

  /// Raw serialized bits of v's label (wire_label encoding needs the
  /// buffer itself, not a decode).
  static const BitWriter& raw_label(const ForbiddenSetLabeling& scheme,
                                    Vertex v) {
    return scheme.labels_[v];
  }
};

inline std::vector<ForbiddenSetLabeling> split_labeling(
    const ForbiddenSetLabeling& scheme, std::uint32_t shard_count,
    std::uint64_t ring_seed = kDefaultRingSeed,
    std::uint32_t ring_points = kDefaultRingPoints) {
  return ShardStore::split(scheme, shard_count, ring_seed, ring_points);
}

inline ForbiddenSetLabeling merge_labelings(
    const std::vector<ForbiddenSetLabeling>& shards) {
  return ShardStore::merge(shards);
}

}  // namespace fsdl::shard
