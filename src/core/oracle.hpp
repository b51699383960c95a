// ForbiddenSetOracle — the §1 "byproduct": a centralized (1+ε) forbidden-set
// distance oracle assembled from the labeling scheme. The paper sizes it as
// n × label length, a table of every vertex's label. This oracle reads the
// labels from the scheme's LevelGraphStore instead (core/level_store.hpp):
// one level graph H_i per level plus each vertex's hub list, so its memory
// is Σ|H_i| + Σ|P_i(v)| and it answers exactly what the table would,
// independent of how many faults a query carries.
#pragma once

#include <memory>

#include "core/decoder.hpp"
#include "core/labeling.hpp"
#include "core/level_store.hpp"
#include "graph/fault_view.hpp"

namespace fsdl {

/// Thread safety: after construction, every const member is safe to call
/// from any number of threads concurrently (the store is immutable). The
/// query server relies on this.
class ForbiddenSetOracle {
 public:
  /// Keeps a reference to the scheme and shares its store. A scheme without
  /// one (loaded from a file, merged from shards) has its store rebuilt from
  /// the labels here, which throws std::runtime_error when the labeling is
  /// rejected (LevelGraphStore::from_labeling).
  explicit ForbiddenSetOracle(const ForbiddenSetLabeling& scheme);

  ForbiddenSetOracle(const ForbiddenSetOracle&) = delete;
  ForbiddenSetOracle& operator=(const ForbiddenSetOracle&) = delete;

  /// (1+ε)-approximate d_{G\F}(s, t); kInfDist when disconnected or when an
  /// endpoint is itself forbidden.
  Dist distance(Vertex s, Vertex t, const FaultSet& faults) const;

  /// Full query result (distance, sketch path waypoints, work counters).
  QueryResult query(Vertex s, Vertex t, const FaultSet& faults) const;

  /// Amortized interface for the router scenario: pay the |F|-dependent
  /// work once, then answer many (s, t) queries against the same faults.
  PreparedFaults prepare(const FaultSet& faults) const;

  /// v's label as a view over the store (also used by the routing scheme).
  /// Valid for the oracle's lifetime; throws std::out_of_range when the
  /// scheme does not hold v's label (an unowned vertex of a shard piece).
  LabelView label(Vertex v) const { return store_->label(v); }

  /// Nothing to decode ahead of time: the store is complete once the oracle
  /// is constructed. Kept so serving code can warm any oracle uniformly.
  void warm() const {}

  const ForbiddenSetLabeling& scheme() const noexcept { return *scheme_; }
  const LevelGraphStore& store() const noexcept { return *store_; }

  /// Oracle size = total bits across all stored labels.
  std::size_t size_bits() const { return scheme_->total_bits(); }

 private:
  const ForbiddenSetLabeling* scheme_;
  std::shared_ptr<const LevelGraphStore> store_;
};

}  // namespace fsdl
