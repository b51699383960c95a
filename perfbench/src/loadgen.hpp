// The benchmark's load generator, in the same process as the servers, over
// loopback TCP: the closed loop runs one thread per connection, the open
// loop one thread for all of them.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/fault_view.hpp"
#include "graph/graph.hpp"
#include "server/client.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace fsdl::perfbench {

/// One point-to-point distance as served.
struct Query {
  std::uint32_t request = 0;   ///< Index into PhaseResult::requests.
  std::uint32_t fault_id = 0;  ///< Index into the run's fault-set table.
  Vertex s = 0;
  Vertex t = 0;
  Dist got = kInfDist;
};

struct RequestRecord {
  std::uint32_t connection = 0;
  /// Per-connection request number (closed loop) or burst number (open).
  std::uint32_t seq = 0;
  /// Send time on the now_us() clock.
  double send_us = 0.0;
  /// Closed loop: from send. Open loop: from the scheduled send time.
  double latency_us = 0.0;
  /// Open loop: actual send time minus scheduled send time.
  double lag_us = 0.0;
  /// Transport error, non-OK status, or (set by the check) a wrong answer.
  bool failed = false;
};

struct PhaseResult {
  /// Scheduled first send on the now_us() clock, and from there to the
  /// last reply, seconds.
  double start_us = 0.0;
  double window_s = 0.0;
  /// Peak resident memory (MiB) up to the end of the phase, less the bytes
  /// of the generator's request log (see merge in loadgen.cpp).
  double rss_peak_mib = 0.0;
  std::vector<RequestRecord> requests;
  std::vector<Query> queries;
};

/// A fresh trace context per request when `spans` is non-null.
struct Tracing {
  SpanLog* spans = nullptr;
  std::uint64_t trace_hi = 0;
};

/// A connection that fails is reconnected to 127.0.0.1:`port`.
///
/// Closed loop for `seconds`: each connection sends its next request as
/// soon as the previous one is answered, drawing a fault set from
/// sets[0 .. spec.pool_sizes.size()) and uniform endpoints.
PhaseResult run_closed_loop(const WorkloadSpec& spec, const Graph& g,
                            std::vector<server::Client>& clients,
                            std::uint16_t port,
                            const std::vector<FaultSet>& sets,
                            std::uint64_t stream_seed, double seconds,
                            Tracing tracing);

/// Open loop for `seconds`: every spec.burst_interval_ms a fresh fault set
/// (appended to `sets`, never equal to any key in `seen`) arrives as one
/// DIST per connection, all sent back to back from one thread.
PhaseResult run_open_loop(const WorkloadSpec& spec, const Graph& g,
                          std::vector<server::Client>& clients,
                          std::uint16_t port, std::vector<FaultSet>& sets,
                          std::unordered_set<std::uint64_t>& seen,
                          std::uint64_t stream_seed, double seconds,
                          Tracing tracing);

}  // namespace fsdl::perfbench
