#include "check.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

namespace fsdl::perfbench {

bool within_bound(double epsilon, Dist exact, Dist got) {
  if (exact == kInfDist || got == kInfDist) return exact == got;
  return got >= exact &&
         static_cast<double>(got) <= (1.0 + epsilon) * static_cast<double>(exact);
}

namespace {

/// Run `body(i)` for i in [0, count) on `threads` threads.
template <class Body>
void parallel_for(std::size_t count, unsigned threads, Body body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned k = 0; k < std::max(1u, threads); ++k) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) body(i);
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace

ReplayResult replay_and_check(const Graph& g, const ForbiddenSetOracle& oracle,
                              double epsilon, const std::vector<FaultSet>& sets,
                              PhaseResult& phase, unsigned threads) {
  ReplayResult out;
  out.checked = phase.queries.size();

  // Prepare every fault set the phase used, once, as the server did.
  std::vector<std::uint32_t> used;
  for (const Query& q : phase.queries) used.push_back(q.fault_id);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  std::vector<std::unique_ptr<PreparedFaults>> prepared(sets.size());
  parallel_for(used.size(), threads, [&](std::size_t i) {
    prepared[used[i]] =
        std::make_unique<PreparedFaults>(oracle.prepare(sets[used[i]]));
  });
  for (std::uint32_t id : used) {
    out.prepare_us.add(prepared[id]->prepare_us());
  }

  // Queries sorted by (fault set, source) so each chunk runs one BFS per
  // distinct pair; chunks are contiguous so no BFS is repeated across them.
  std::vector<std::size_t> order(phase.queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Query& x = phase.queries[a];
    const Query& y = phase.queries[b];
    return std::tie(x.fault_id, x.s) < std::tie(y.fault_id, y.s);
  });
  const unsigned chunks = std::max(1u, threads);
  std::mutex mu;
  parallel_for(chunks, threads, [&](std::size_t chunk) {
    const std::size_t begin = order.size() * chunk / chunks;
    const std::size_t end = order.size() * (chunk + 1) / chunks;
    ReplayResult local;
    std::vector<std::pair<double, double>> timings;  // assemble, dijkstra
    std::vector<std::size_t> failed_requests;
    std::vector<Dist> exact;
    std::uint32_t bfs_fault = 0;
    Vertex bfs_source = 0;
    bool have_bfs = false;
    for (std::size_t k = begin; k < end; ++k) {
      const Query& q = phase.queries[order[k]];
      if (!have_bfs || q.fault_id != bfs_fault || q.s != bfs_source) {
        exact = bfs_distances_avoiding(g, q.s, sets[q.fault_id]);
        bfs_fault = q.fault_id;
        bfs_source = q.s;
        have_bfs = true;
      }
      const PreparedFaults& p = *prepared[q.fault_id];
      const QueryResult r = p.query(oracle.label(q.s), oracle.label(q.t));
      timings.emplace_back(r.stats.assemble_us, r.stats.dijkstra_us);
      if (phase.requests[q.request].seq < kWorkPrefix) {
        const QueryStats& base = p.prepare_stats();
        ++local.counted_queries;
        local.pb_checks +=
            static_cast<double>(r.stats.pb_checks - base.pb_checks);
        local.edges_considered += static_cast<double>(
            r.stats.edges_considered - base.edges_considered);
        local.sketch_edges += static_cast<double>(r.stats.sketch_edges);
        local.relaxations += static_cast<double>(r.stats.dijkstra_relaxations);
      }
      const bool exact_ok = within_bound(epsilon, exact[q.t], q.got);
      const bool replay_ok = r.distance == q.got;
      if (exact_ok && replay_ok) continue;
      local.exact_violations += exact_ok ? 0 : 1;
      local.replay_mismatches += replay_ok ? 0 : 1;
      failed_requests.push_back(q.request);
      if (local.examples.size() < 5) {
        std::ostringstream msg;
        msg << "fault_set=" << q.fault_id << " s=" << q.s << " t=" << q.t
            << " served=" << q.got << " exact=" << exact[q.t]
            << " replay=" << r.distance;
        local.examples.push_back(msg.str());
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t r : failed_requests) phase.requests[r].failed = true;
    out.exact_violations += local.exact_violations;
    out.replay_mismatches += local.replay_mismatches;
    for (auto& e : local.examples) {
      if (out.examples.size() < 5) out.examples.push_back(std::move(e));
    }
    for (const auto& [assemble, dijkstra] : timings) {
      out.assemble_us.add(assemble);
      out.dijkstra_us.add(dijkstra);
    }
    out.counted_queries += local.counted_queries;
    out.pb_checks += local.pb_checks;
    out.edges_considered += local.edges_considered;
    out.sketch_edges += local.sketch_edges;
    out.relaxations += local.relaxations;
  });
  return out;
}

}  // namespace fsdl::perfbench
