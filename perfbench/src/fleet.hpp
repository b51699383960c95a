// Set-up of one workload's serving fleet: label build, optional shard split,
// servers and router started in process, clients connected, caches warmed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/fault_view.hpp"
#include "graph/graph.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "shard/router.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace fsdl::perfbench {

struct SetupTimes {
  /// ForbiddenSetLabeling::build and ForbiddenSetOracle::warm.
  double build_s = 0.0;
  double warm_s = 0.0;
  /// Everything, until the last warm-up answer was verified. On a routed
  /// fleet the oracle's warm-up is left out: no request reaches it.
  double total_s = 0.0;
};

/// Counters read through the front door's public accessors.
struct FleetCounters {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batch_groups = 0;
  std::uint64_t batched_requests = 0;
  std::uint64_t label_hits = 0;
  std::uint64_t label_misses = 0;

  FleetCounters operator-(const FleetCounters& o) const {
    return {cache_hits - o.cache_hits,
            cache_misses - o.cache_misses,
            batch_groups - o.batch_groups,
            batched_requests - o.batched_requests,
            label_hits - o.label_hits,
            label_misses - o.label_misses};
  }
};

class Fleet {
 public:
  /// Sets the fleet up and times it. Warm-up sends one DIST per warm fault
  /// set (one fault-free DIST when there are none) on every connection and
  /// checks each answer against the exact distance; throws on a wrong one.
  Fleet(const WorkloadSpec& spec, const Graph& g,
        const std::vector<FaultSet>& warm_sets, Rng& rng, SpanLog& spans,
        SetupTimes& times);

  const ForbiddenSetLabeling& scheme() const { return *scheme_; }
  /// Oracle over the whole labeling (the in-process replay uses it too).
  const ForbiddenSetOracle& oracle() const { return *oracle_; }
  std::vector<server::Client>& clients() { return clients_; }
  std::uint16_t port() const;
  FleetCounters counters() const;

 private:
  // Declaration order is teardown order reversed: clients disconnect first,
  // then the router stops, then the servers it talks to.
  std::unique_ptr<ForbiddenSetLabeling> scheme_;
  std::unique_ptr<ForbiddenSetOracle> oracle_;
  std::vector<std::unique_ptr<Traced<server::Server>>> servers_;
  std::unique_ptr<Traced<shard::Router>> router_;
  std::vector<server::Client> clients_;
};

}  // namespace fsdl::perfbench
