// ForbiddenSetLabeling — construction and storage of the paper's
// forbidden-set (1+ε)-approximate distance labels (Theorem 2.1).
//
// The scheme object holds one serialized bit string per vertex plus the
// shared scheme description (n, parameters, level range). The bits are what
// files, GET_LABEL and the E4 accounting use. Queries read the labels from
// a LevelGraphStore instead (core/level_store.hpp): the builders write one
// beside the bits, and ForbiddenSetOracle rebuilds one from the bits when a
// labeling arrives without it (loaded from a file, merged).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/label.hpp"
#include "core/level_store.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"
#include "shard/partition.hpp"
#include "util/bitstream.hpp"
#include "util/types.hpp"

namespace fsdl {

namespace shard {
class ShardStore;
}  // namespace shard

struct BuildOptions {
  /// Cap the top level at ⌈log₂(diam+1)⌉ instead of the paper's ⌈log₂ n⌉.
  /// Levels above the diameter scale are degenerate (a single net point
  /// covering everything), so this is a pure size optimization; set false
  /// to reproduce the paper's accounting exactly.
  bool cap_levels_at_diameter = true;

  /// Wire format for the serialized labels. kClassic matches the paper's
  /// fixed-width accounting; kDelta gap-codes sorted point/edge lists
  /// (identical information, fewer bits — measured in E4).
  LabelCodec codec = LabelCodec::kClassic;

  /// Construction worker threads. 0 = auto (FSDL_BUILD_THREADS environment
  /// override, else hardware concurrency). The produced labels are
  /// bit-identical for every thread count — see builder.cpp for the
  /// determinism argument — so this is purely a wall-clock knob.
  unsigned threads = 0;
};

class ForbiddenSetLabeling {
 public:
  /// Preprocess a connected unweighted graph. Polynomial time: one
  /// radius-truncated BFS per net point per level.
  static ForbiddenSetLabeling build(const Graph& g, const SchemeParams& params,
                                    const BuildOptions& options = {});

  const SchemeParams& params() const noexcept { return params_; }
  Vertex num_vertices() const noexcept { return static_cast<Vertex>(labels_.size()); }
  unsigned min_level() const noexcept { return params_.min_level(); }
  unsigned top_level() const noexcept { return top_level_; }
  unsigned vertex_bits() const noexcept { return vertex_bits_; }
  LabelCodec codec() const noexcept { return codec_; }

  /// Decode the label of v.
  VertexLabel label(Vertex v) const;

  /// The level-graph store written beside the bits by the builders (and
  /// cut by ShardStore::split); null for a labeling loaded from a file or
  /// merged from shards, whose store is rebuilt from the bits on demand
  /// (LevelGraphStore::from_labeling).
  const std::shared_ptr<const LevelGraphStore>& store() const noexcept {
    return store_;
  }

  /// Exact serialized size of L(v) in bits.
  std::size_t label_bits(Vertex v) const { return labels_[v].bit_size(); }

  std::size_t max_label_bits() const;
  double mean_label_bits() const;
  std::size_t total_bits() const;

  /// Partition identity: which shard of which consistent-hash ring this
  /// object holds. Default-constructed (shard 0 of 1) for anything built in
  /// process; set by shard::ShardStore::split and by deserialization. A
  /// sharded labeling still has num_vertices() slots — unowned vertices
  /// hold empty bit buffers and must not be decoded.
  const shard::PartitionInfo& partition() const noexcept { return partition_; }

  /// True when this object holds v's label bits (always true unsharded;
  /// equivalent to a nonempty stored buffer for a split labeling).
  bool stores_label(Vertex v) const {
    return !partition_.sharded() || labels_[v].bit_size() > 0;
  }

 private:
  // The weighted extension builds the same storage through its own
  // constructor logic (core/weighted.cpp); persistence reads/writes the raw
  // buffers (core/serialize.cpp); the shard store cuts and reassembles
  // them (shard/shard_store.cpp).
  friend class WeightedLabelingBuilder;
  friend class SchemeSerializer;
  friend class shard::ShardStore;

  SchemeParams params_;
  unsigned top_level_ = 0;
  unsigned vertex_bits_ = 1;
  LabelCodec codec_ = LabelCodec::kClassic;
  std::vector<BitWriter> labels_;
  shard::PartitionInfo partition_;
  std::shared_ptr<const LevelGraphStore> store_;
};

}  // namespace fsdl
