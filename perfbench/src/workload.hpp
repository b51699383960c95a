// The benchmark's workloads: graph, labeling preset, fleet shape and
// traffic. Why each exists is recorded in BENCHMARK.json and README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "graph/fault_view.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace fsdl::perfbench {

struct WorkloadSpec {
  std::string name;
  /// Grid graph rows x cols.
  Vertex rows = 0;
  Vertex cols = 0;
  /// Faithful preset at epsilon.
  double epsilon = 1.0;
  /// Label-server workers. With shards > 0, each of the `shards` servers
  /// holds one piece of the split labeling and a Router is the front door.
  unsigned server_workers = 4;
  unsigned shards = 0;
  unsigned router_workers = 4;
  std::size_t label_cache = 4096;
  /// Client connections, one load-generator thread each.
  unsigned connections = 4;
  /// Closed loop: each connection sends its next request when the last one
  /// is answered, over a warm pool of fault sets of these sizes.
  std::vector<unsigned> pool_sizes;
  /// Share of pool faults that are edges (the rest are vertices).
  double edge_share = 0.0;
  /// Every batch_every-th request is a BATCH of batch_pairs (0 = DIST only).
  unsigned batch_every = 0;
  unsigned batch_pairs = 8;
  /// Open loop (fault churn): every burst_interval_ms a fresh fault set of
  /// churn_faults elements arrives as one DIST per connection. 0 = closed.
  unsigned burst_interval_ms = 0;
  unsigned churn_faults = 0;

  bool open_loop() const { return burst_interval_ms > 0; }
  SchemeParams params() const { return SchemeParams::faithful(epsilon); }
  /// One line of key=value parameters for the run metadata.
  std::string describe() const;
};

/// The named workload, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);
/// Comma-separated names of all workloads (for usage errors).
std::string workload_names();

/// A fault set of exactly `size` distinct elements, each an edge with
/// probability `edge_share`, else a vertex.
FaultSet random_faults(const Graph& g, Rng& rng, unsigned size,
                       double edge_share);

/// Stream seeds derived from the run seed, so the traffic of each phase and
/// connection is reproducible and independent of the others.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

}  // namespace fsdl::perfbench
