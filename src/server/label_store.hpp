// Hot-swappable label state for the query server.
//
// A LabelSnapshot bundles everything a request needs that must stay
// mutually consistent: the labeling, the oracle reading it (through its
// level-graph store), and the PreparedFaults cache keyed against that
// oracle's labels. The three are
// swapped as one unit — a prepared fault set built from epoch-1 labels must
// never answer a query routed to epoch-2 labels, so the cache lives *inside*
// the snapshot and is invalidated by construction on every swap (the
// epoch-based generalization of "flush the cache").
//
// LabelStore is the RCU-style publication point:
//   * readers (worker threads inside Server::handle) take a shared_ptr to
//     the current snapshot once per request and use it for the request's
//     whole lifetime — a concurrent swap never changes the labels mid
//     request;
//   * the writer (reload) builds the new snapshot off to the side, then
//     publishes it with one pointer swap. In-flight requests keep the old
//     snapshot alive through their shared_ptr; the last one to finish frees
//     it. No reader ever blocks on a reload, and no reload ever waits for
//     readers.
//
// The store also supports wrapping an externally owned oracle (the
// historical Server constructor used by tests and benches); a later reload
// simply publishes an owning snapshot over the borrowed one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "server/prepared_cache.hpp"
#include "shard/partition.hpp"

namespace fsdl::server {

class LabelSnapshot {
 public:
  /// Owning snapshot: takes the labeling, builds its oracle and an empty
  /// prepared cache of the given shape.
  LabelSnapshot(ForbiddenSetLabeling scheme, std::size_t cache_capacity,
                std::size_t cache_shards, std::uint64_t epoch);

  /// Borrowing snapshot: wraps an oracle owned by the caller (which must
  /// outlive every request that sees this snapshot).
  LabelSnapshot(const ForbiddenSetOracle& oracle, std::size_t cache_capacity,
                std::size_t cache_shards, std::uint64_t epoch);

  LabelSnapshot(const LabelSnapshot&) = delete;
  LabelSnapshot& operator=(const LabelSnapshot&) = delete;

  const ForbiddenSetOracle& oracle() const noexcept { return *oracle_; }
  /// The prepared-fault cache tied to this label version. Mutable through a
  /// const snapshot: the cache is internally synchronized (sharded locks).
  PreparedCache& cache() const noexcept { return cache_; }
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// The labeling's partition identity and the ownership function over it
  /// (trivial for an unsharded labeling: every vertex → shard 0). Built
  /// once per snapshot so the per-request ownership check is a ring lookup,
  /// never a ring rebuild.
  const shard::PartitionInfo& partition() const noexcept {
    return partitioner_->info();
  }
  const shard::Partitioner& partitioner() const noexcept {
    return *partitioner_;
  }

 private:
  // Destruction order matters (reverse of declaration): cache_ releases its
  // PreparedFaults (views into the oracle's store) before owned_oracle_
  // drops the store, and owned_oracle_ goes before owned_scheme_.
  std::unique_ptr<const ForbiddenSetLabeling> owned_scheme_;
  std::unique_ptr<const ForbiddenSetOracle> owned_oracle_;
  const ForbiddenSetOracle* oracle_;
  mutable PreparedCache cache_;
  std::uint64_t epoch_;
  std::unique_ptr<const shard::Partitioner> partitioner_;
};

class LabelStore {
 public:
  /// Publish a new snapshot; the previous one stays alive until the last
  /// in-flight request drops its reference.
  void publish(std::shared_ptr<const LabelSnapshot> snapshot);

  /// The current snapshot (never null after the first publish). One mutex
  /// acquisition for a pointer copy — cheap next to any query's work, and
  /// trivially correct under every sanitizer.
  std::shared_ptr<const LabelSnapshot> current() const;

  std::uint64_t epoch() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const LabelSnapshot> snapshot_;
};

}  // namespace fsdl::server
