#include "workload.hpp"

#include <sstream>
#include <stdexcept>

namespace fsdl::perfbench {

namespace {

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> all;

  // Prepared cache always hits: nearly all of a request is core assemble.
  WorkloadSpec decode_warm;
  decode_warm.name = "decode_warm";
  decode_warm.rows = decode_warm.cols = 14;
  decode_warm.server_workers = 4;
  decode_warm.connections = 4;
  decode_warm.pool_sizes = {2, 2, 4, 4, 8, 8};
  decode_warm.edge_share = 0.4;
  decode_warm.batch_every = 8;
  all.push_back(decode_warm);

  // Every fault set is new: prepare and cache-miss handling dominate.
  WorkloadSpec fault_churn = decode_warm;
  fault_churn.name = "fault_churn";
  fault_churn.pool_sizes.clear();
  fault_churn.batch_every = 0;
  fault_churn.burst_interval_ms = 20;
  fault_churn.churn_faults = 8;
  all.push_back(fault_churn);

  // Labels live on shard servers and mostly miss the router's small LRU.
  WorkloadSpec router_cold;
  router_cold.name = "router_cold";
  router_cold.rows = router_cold.cols = 14;
  router_cold.server_workers = 2;
  router_cold.shards = 2;
  router_cold.router_workers = 4;
  router_cold.label_cache = 16;
  router_cold.connections = 2;
  router_cold.pool_sizes = {2, 2, 2, 2};
  all.push_back(router_cold);
  return all;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

}  // namespace

std::string WorkloadSpec::describe() const {
  std::ostringstream out;
  out << "graph=grid" << rows << "x" << cols << " n=" << rows * cols
      << " preset=faithful eps=" << epsilon;
  if (shards > 0) {
    out << " shards=" << shards << " shard_workers=" << server_workers
        << " router_workers=" << router_workers
        << " label_cache=" << label_cache;
  } else {
    out << " workers=" << server_workers;
  }
  out << " connections=" << connections;
  if (open_loop()) {
    out << " loop=open burst_interval_ms=" << burst_interval_ms
        << " burst=" << connections << "xDIST churn_faults=" << churn_faults
        << " edge_share=" << edge_share;
  } else {
    out << " loop=closed pool=";
    for (std::size_t i = 0; i < pool_sizes.size(); ++i) {
      out << (i ? "," : "") << pool_sizes[i];
    }
    out << " edge_share=" << edge_share;
    if (batch_every > 0) {
      out << " mix=DIST:BATCH" << batch_pairs << "=" << batch_every - 1
          << ":1";
    } else {
      out << " mix=DIST";
    }
  }
  return out.str();
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const WorkloadSpec& w : workloads()) {
    names += (names.empty() ? "" : ", ") + w.name;
  }
  return names;
}

FaultSet random_faults(const Graph& g, Rng& rng, unsigned size,
                       double edge_share) {
  FaultSet f;
  const Vertex n = g.num_vertices();
  for (unsigned guard = 0; f.size() < size; ++guard) {
    if (guard > 100 * size + 100) {
      throw std::runtime_error("cannot draw a fault set of the asked size");
    }
    const Vertex a = rng.vertex(n);
    if (rng.chance(edge_share)) {
      const auto nb = g.neighbors(a);
      if (!nb.empty()) f.add_edge(a, nb[rng.below(nb.size())]);
    } else {
      f.add_vertex(a);
    }
  }
  return f;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xC2B2AE3D27D4EB4FULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace fsdl::perfbench
