// Correctness gate and in-process replay.
//
// Every served answer is checked twice after the timed phase:
//   * against the exact distance in G\F (BFS): d <= got <= (1+eps) d (every
//     workload runs the faithful preset), and got is infinite exactly when
//     t is unreachable;
//   * against an in-process replay through PreparedFaults on the same
//     labels, which must agree bit for bit (the server and the router run
//     the same decoder on the same label bits).
// The replay is also where the core layer is measured: prepare time per
// fault set and the QueryStats of every query.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "graph/fault_view.hpp"
#include "graph/graph.hpp"
#include "loadgen.hpp"
#include "util/stats.hpp"

namespace fsdl::perfbench {

/// True when `got` is an admissible faithful-preset answer at `epsilon` for
/// exact distance `exact`.
bool within_bound(double epsilon, Dist exact, Dist got);

struct ReplayResult {
  std::size_t checked = 0;
  std::size_t exact_violations = 0;
  std::size_t replay_mismatches = 0;
  /// First few failures, for the log.
  std::vector<std::string> examples;
  /// PreparedFaults::prepare_us(), one per distinct fault set replayed.
  Summary prepare_us;
  /// QueryStats timings, one per replayed query.
  Summary assemble_us;
  Summary dijkstra_us;
  /// Per-query work counters (the fault set's one-time share excluded),
  /// summed over the queries of each connection's first kWorkPrefix
  /// requests only, so the sums repeat exactly for a given seed.
  std::size_t counted_queries = 0;
  double pb_checks = 0.0;
  double edges_considered = 0.0;
  double sketch_edges = 0.0;
  double relaxations = 0.0;
};

inline constexpr std::uint32_t kWorkPrefix = 64;

/// Replay and check every query of `phase`, marking the owning request
/// failed on any mismatch. Runs on `threads` threads.
ReplayResult replay_and_check(const Graph& g, const ForbiddenSetOracle& oracle,
                              double epsilon, const std::vector<FaultSet>& sets,
                              PhaseResult& phase, unsigned threads);

}  // namespace fsdl::perfbench
