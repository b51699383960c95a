#include "server/metrics.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "core/serialize.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"

namespace fsdl::server {

namespace {

const char* kTypeNames[kNumRequestTypes] = {
    "dist",   "batch",  "stats",     "metrics",
    "health", "reload", "get_label", "fleet_stats"};

void append_line(std::string& out, const char* fmt, ...) {
  char line[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof line, fmt, args);
  va_end(args);
  out += line;
}

}  // namespace

const char* request_type_name(RequestType t) {
  const unsigned k = static_cast<unsigned>(t);
  return k < kNumRequestTypes ? kTypeNames[k] : "?";
}

void append_prometheus_histogram(std::string& out, const char* name,
                                 const std::string& labels,
                                 const Histogram& h) {
  // `name_bucket{labels,le="u"} v` — the le label always comes last.
  const std::string bucket_open =
      std::string(name) + "_bucket{" + (labels.empty() ? "" : labels + ",");
  std::uint64_t cumulative = 0;
  for (const auto& b : h.buckets()) {
    cumulative += b.count;
    append_line(out, "%sle=\"%.6g\"} %" PRIu64 "\n", bucket_open.c_str(),
                b.upper, cumulative);
  }
  append_line(out, "%sle=\"+Inf\"} %" PRIu64 "\n", bucket_open.c_str(),
              h.count());
  const std::string plain = labels.empty() ? "" : "{" + labels + "}";
  append_line(out, "%s_sum%s %.6g\n", name, plain.c_str(), h.sum());
  append_line(out, "%s_count%s %" PRIu64 "\n", name, plain.c_str(), h.count());
}

const char* stage_counter_name(StageCounter c) {
  switch (c) {
    case StageCounter::kSketchVertices: return "sketch_vertices";
    case StageCounter::kSketchEdges: return "sketch_edges";
    case StageCounter::kEdgesConsidered: return "edges_considered";
    case StageCounter::kSafeEdgeChecks: return "safe_edge_checks";
    case StageCounter::kDijkstraRelaxations: return "dijkstra_relaxations";
    case StageCounter::kCount_: break;
  }
  return "?";
}

const char* failure_counter_name(FailureCounter c) {
  switch (c) {
    case FailureCounter::kRequestTimeouts: return "request_timeouts";
    case FailureCounter::kSheds: return "sheds";
    case FailureCounter::kEvictions: return "evictions";
    case FailureCounter::kAcceptRetries: return "accept_retries";
    case FailureCounter::kDrainRejects: return "drain_rejects";
    case FailureCounter::kFrameCrcErrors: return "frame_crc_errors";
    case FailureCounter::kCount_: break;
  }
  return "?";
}

const char* reload_result_name(ReloadResult r) {
  switch (r) {
    case ReloadResult::kOk: return "ok";
    case ReloadResult::kCrcFailed: return "crc_failed";
    case ReloadResult::kError: return "error";
    case ReloadResult::kCount_: break;
  }
  return "?";
}

const char* label_fetch_result_name(LabelFetchResult r) {
  switch (r) {
    case LabelFetchResult::kOk: return "ok";
    case LabelFetchResult::kError: return "error";
    case LabelFetchResult::kUnavailable: return "unavailable";
    case LabelFetchResult::kCount_: break;
  }
  return "?";
}

const char* degraded_reason_name(DegradedReason r) {
  switch (r) {
    case DegradedReason::kStaleLabel: return "stale_label";
    case DegradedReason::kShardDown: return "shard_down";
    case DegradedReason::kCount_: break;
  }
  return "?";
}

Metrics::Metrics() : start_(std::chrono::steady_clock::now()) {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  for (auto& s : stages_) s.store(0, std::memory_order_relaxed);
  for (auto& f : failures_) f.store(0, std::memory_order_relaxed);
  for (auto& r : reloads_) r.store(0, std::memory_order_relaxed);
  for (auto& l : label_fetches_) l.store(0, std::memory_order_relaxed);
  label_cache_hits_.store(0, std::memory_order_relaxed);
  label_cache_misses_.store(0, std::memory_order_relaxed);
  for (auto& d : degraded_) d.store(0, std::memory_order_relaxed);
  reactor_stalls_.store(0, std::memory_order_relaxed);
  worker_stalls_.store(0, std::memory_order_relaxed);
  open_connections_.store(0, std::memory_order_relaxed);
  errors_.store(0, std::memory_order_relaxed);
  queries_.store(0, std::memory_order_relaxed);
  connections_.store(0, std::memory_order_relaxed);
  failovers_.store(0, std::memory_order_relaxed);
  hedges_won_.store(0, std::memory_order_relaxed);
  hedges_lost_.store(0, std::memory_order_relaxed);
}

void Metrics::record(RequestType type, std::uint64_t queries, double micros) {
  const unsigned k = static_cast<unsigned>(type);
  counts_[k].fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(queries, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(lat_mu_[k]);
  latency_[k].add(micros);
}

void Metrics::record_error() {
  errors_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::record_connection() {
  connections_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::record_query_stats(const QueryStats& stats) {
  auto add = [&](StageCounter c, std::size_t n) {
    if (n != 0) {
      stages_[static_cast<unsigned>(c)].fetch_add(n,
                                                  std::memory_order_relaxed);
    }
  };
  add(StageCounter::kSketchVertices, stats.sketch_vertices);
  add(StageCounter::kSketchEdges, stats.sketch_edges);
  add(StageCounter::kEdgesConsidered, stats.edges_considered);
  add(StageCounter::kSafeEdgeChecks, stats.pb_checks);
  add(StageCounter::kDijkstraRelaxations, stats.dijkstra_relaxations);
}

double Metrics::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

std::string Metrics::render(const PreparedCache::Stats& cache) const {
  std::string out;
  const double up = uptime_seconds();
  const std::uint64_t q = total_queries();
  append_line(out, "uptime_s: %.1f\n", up);
  append_line(out, "connections: %" PRIu64 "\n",
              connections_.load(std::memory_order_relaxed));
  append_line(out, "open_connections: %lld\n",
              static_cast<long long>(open_connections()));
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    if (!batch_size_.empty()) {
      append_line(out,
                  "batch_size: groups=%" PRIu64
                  " requests=%.0f mean=%.2f max=%.0f\n",
                  batch_size_.count(), batch_size_.sum(), batch_size_.mean(),
                  batch_size_.max());
    }
  }
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!loop_latency_.empty()) {
      append_line(out,
                  "reactor_loop_us: p50=%.1f p99=%.1f max=%.1f\n",
                  loop_latency_.percentile(50), loop_latency_.percentile(99),
                  loop_latency_.max());
    }
  }
  append_line(out, "queries_total: %" PRIu64 "\n", q);
  append_line(out, "qps: %.1f\n", up > 0 ? static_cast<double>(q) / up : 0.0);
  append_line(out, "errors: %" PRIu64 "\n", errors());
  for (unsigned k = 0; k < kNumRequestTypes; ++k) {
    const std::uint64_t n = counts_[k].load(std::memory_order_relaxed);
    append_line(out, "%s_requests: %" PRIu64 "\n", kTypeNames[k], n);
    std::lock_guard<std::mutex> lock(lat_mu_[k]);
    if (!latency_[k].empty()) {
      append_line(out,
                  "%s_latency_us: mean=%.1f p50=%.1f p95=%.1f p99=%.1f "
                  "max=%.1f\n",
                  kTypeNames[k], latency_[k].mean(), latency_[k].percentile(50),
                  latency_[k].percentile(95), latency_[k].percentile(99),
                  latency_[k].max());
    }
  }
  for (unsigned k = 0; k < kNumStageCounters; ++k) {
    append_line(out, "stage_%s: %" PRIu64 "\n",
                stage_counter_name(static_cast<StageCounter>(k)),
                stages_[k].load(std::memory_order_relaxed));
  }
  for (unsigned k = 0; k < kNumFailureCounters; ++k) {
    append_line(out, "%s: %" PRIu64 "\n",
                failure_counter_name(static_cast<FailureCounter>(k)),
                failures_[k].load(std::memory_order_relaxed));
  }
  append_line(out, "failovers: %" PRIu64 "\n", failovers());
  append_line(out, "hedged_won: %" PRIu64 "\n", hedges(true));
  append_line(out, "hedged_lost: %" PRIu64 "\n", hedges(false));
  for (unsigned k = 0; k < kNumReloadResults; ++k) {
    append_line(out, "label_reloads_%s: %" PRIu64 "\n",
                reload_result_name(static_cast<ReloadResult>(k)),
                reloads_[k].load(std::memory_order_relaxed));
  }
  for (unsigned k = 0; k < kNumLabelFetchResults; ++k) {
    append_line(out, "router_label_fetches_%s: %" PRIu64 "\n",
                label_fetch_result_name(static_cast<LabelFetchResult>(k)),
                label_fetches_[k].load(std::memory_order_relaxed));
  }
  append_line(out, "router_label_cache_hits: %" PRIu64 "\n",
              label_cache(true));
  append_line(out, "router_label_cache_misses: %" PRIu64 "\n",
              label_cache(false));
  for (unsigned k = 0; k < kNumDegradedReasons; ++k) {
    append_line(out, "degraded_responses_%s: %" PRIu64 "\n",
                degraded_reason_name(static_cast<DegradedReason>(k)),
                degraded_[k].load(std::memory_order_relaxed));
  }
  append_line(out, "reactor_stalls: %" PRIu64 "\n", reactor_stalls());
  append_line(out, "worker_stalls: %" PRIu64 "\n", worker_stalls());
  append_line(out, "label_crc_failures: %" PRIu64 "\n",
              labeling_crc_failures());
  for (const auto& fp : failpoint::stats()) {
    append_line(out, "failpoint_%s: spec=%s hits=%" PRIu64 " fires=%" PRIu64
                     "\n",
                fp.point.c_str(), fp.spec.c_str(), fp.hits, fp.fires);
  }
  append_line(out, "cache_entries: %zu\n", cache.entries);
  append_line(out, "cache_bytes: %zu\n", cache.bytes);
  append_line(out, "cache_hits: %" PRIu64 "\n", cache.hits);
  append_line(out, "cache_misses: %" PRIu64 "\n", cache.misses);
  append_line(out, "cache_evictions: %" PRIu64 "\n", cache.evictions);
  append_line(out, "cache_hit_rate: %.3f\n", cache.hit_rate());
  return out;
}

std::string Metrics::render_prometheus(
    const PreparedCache::Stats& cache) const {
  std::string out;
  out.reserve(4096);

  append_line(out, "# HELP fsdl_uptime_seconds Seconds since server start.\n");
  append_line(out, "# TYPE fsdl_uptime_seconds gauge\n");
  append_line(out, "fsdl_uptime_seconds %.3f\n", uptime_seconds());

  append_line(out, "# HELP fsdl_connections_total Accepted TCP connections.\n");
  append_line(out, "# TYPE fsdl_connections_total counter\n");
  append_line(out, "fsdl_connections_total %" PRIu64 "\n",
              connections_.load(std::memory_order_relaxed));

  append_line(out, "# HELP fsdl_open_connections Currently open "
                   "connections.\n");
  append_line(out, "# TYPE fsdl_open_connections gauge\n");
  append_line(out, "fsdl_open_connections %lld\n",
              static_cast<long long>(open_connections()));

  append_line(out,
              "# HELP fsdl_batch_size Requests coalesced per dispatched "
              "fault-set batch group (reactor data plane).\n");
  append_line(out, "# TYPE fsdl_batch_size histogram\n");
  {
    Histogram snapshot(1.25);
    {
      std::lock_guard<std::mutex> lock(batch_mu_);
      snapshot = batch_size_;
    }
    append_prometheus_histogram(out, "fsdl_batch_size", "", snapshot);
  }

  append_line(out,
              "# HELP fsdl_reactor_loop_latency_microseconds Busy time per "
              "reactor event-loop iteration.\n");
  append_line(out,
              "# TYPE fsdl_reactor_loop_latency_microseconds histogram\n");
  {
    Histogram snapshot(1.25);
    {
      std::lock_guard<std::mutex> lock(loop_mu_);
      snapshot = loop_latency_;
    }
    append_prometheus_histogram(
        out, "fsdl_reactor_loop_latency_microseconds", "", snapshot);
  }

  append_line(out, "# HELP fsdl_requests_total Completed requests by type.\n");
  append_line(out, "# TYPE fsdl_requests_total counter\n");
  for (unsigned k = 0; k < kNumRequestTypes; ++k) {
    append_line(out, "fsdl_requests_total{type=\"%s\"} %" PRIu64 "\n",
                kTypeNames[k], counts_[k].load(std::memory_order_relaxed));
  }

  append_line(out,
              "# HELP fsdl_queries_total Point-to-point distance queries "
              "answered.\n");
  append_line(out, "# TYPE fsdl_queries_total counter\n");
  append_line(out, "fsdl_queries_total %" PRIu64 "\n", total_queries());

  append_line(out, "# HELP fsdl_errors_total Requests answered with an "
                   "error.\n");
  append_line(out, "# TYPE fsdl_errors_total counter\n");
  append_line(out, "fsdl_errors_total %" PRIu64 "\n", errors());

  append_line(out,
              "# HELP fsdl_request_latency_microseconds Request wall time by "
              "type (geometric buckets).\n");
  append_line(out, "# TYPE fsdl_request_latency_microseconds histogram\n");
  for (unsigned k = 0; k < kNumRequestTypes; ++k) {
    Histogram snapshot(1.25);
    {
      std::lock_guard<std::mutex> lock(lat_mu_[k]);
      snapshot = latency_[k];
    }
    append_prometheus_histogram(out, "fsdl_request_latency_microseconds",
                                std::string("type=\"") + kTypeNames[k] + "\"",
                                snapshot);
  }

  append_line(out,
              "# HELP fsdl_stage_work_total Decoder work units by stage "
              "(see DESIGN.md instrumentation table).\n");
  append_line(out, "# TYPE fsdl_stage_work_total counter\n");
  for (unsigned k = 0; k < kNumStageCounters; ++k) {
    append_line(out, "fsdl_stage_work_total{stage=\"%s\"} %" PRIu64 "\n",
                stage_counter_name(static_cast<StageCounter>(k)),
                stages_[k].load(std::memory_order_relaxed));
  }

  append_line(out,
              "# HELP fsdl_failure_events_total Fault-tolerance events "
              "(load shedding, deadline evictions, accept retries, frame "
              "corruption).\n");
  append_line(out, "# TYPE fsdl_failure_events_total counter\n");
  for (unsigned k = 0; k < kNumFailureCounters; ++k) {
    append_line(out, "fsdl_failure_events_total{event=\"%s\"} %" PRIu64 "\n",
                failure_counter_name(static_cast<FailureCounter>(k)),
                failures_[k].load(std::memory_order_relaxed));
  }

  append_line(out,
              "# HELP fsdl_failovers_total Requests rerouted to another "
              "replica after a failure or transient status (client-side).\n");
  append_line(out, "# TYPE fsdl_failovers_total counter\n");
  append_line(out, "fsdl_failovers_total %" PRIu64 "\n", failovers());

  append_line(out,
              "# HELP fsdl_hedged_requests_total Hedged requests that fired "
              "a backup, by whether the backup answered first.\n");
  append_line(out, "# TYPE fsdl_hedged_requests_total counter\n");
  append_line(out, "fsdl_hedged_requests_total{outcome=\"won\"} %" PRIu64 "\n",
              hedges(true));
  append_line(out, "fsdl_hedged_requests_total{outcome=\"lost\"} %" PRIu64 "\n",
              hedges(false));

  append_line(out,
              "# HELP fsdl_label_reloads_total Hot label reload attempts "
              "(SIGHUP / admin RELOAD) by outcome.\n");
  append_line(out, "# TYPE fsdl_label_reloads_total counter\n");
  for (unsigned k = 0; k < kNumReloadResults; ++k) {
    append_line(out, "fsdl_label_reloads_total{result=\"%s\"} %" PRIu64 "\n",
                reload_result_name(static_cast<ReloadResult>(k)),
                reloads_[k].load(std::memory_order_relaxed));
  }

  append_line(out,
              "# HELP fsdl_router_label_fetches_total Router-to-shard "
              "GET_LABEL round trips by outcome (cache misses only).\n");
  append_line(out, "# TYPE fsdl_router_label_fetches_total counter\n");
  for (unsigned k = 0; k < kNumLabelFetchResults; ++k) {
    append_line(out, "fsdl_router_label_fetches_total{result=\"%s\"} %" PRIu64
                     "\n",
                label_fetch_result_name(static_cast<LabelFetchResult>(k)),
                label_fetches_[k].load(std::memory_order_relaxed));
  }

  append_line(out,
              "# HELP fsdl_router_label_cache_hits_total Router label-LRU "
              "lookups served without a shard round trip.\n");
  append_line(out, "# TYPE fsdl_router_label_cache_hits_total counter\n");
  append_line(out, "fsdl_router_label_cache_hits_total %" PRIu64 "\n",
              label_cache(true));
  append_line(out,
              "# HELP fsdl_router_label_cache_misses_total Router label-LRU "
              "lookups that required a shard fetch.\n");
  append_line(out, "# TYPE fsdl_router_label_cache_misses_total counter\n");
  append_line(out, "fsdl_router_label_cache_misses_total %" PRIu64 "\n",
              label_cache(false));

  append_line(out,
              "# HELP fsdl_degraded_responses_total Queries answered "
              "DEGRADED from a cached label snapshot while the owning shard "
              "was unreachable, by reason.\n");
  append_line(out, "# TYPE fsdl_degraded_responses_total counter\n");
  for (unsigned k = 0; k < kNumDegradedReasons; ++k) {
    append_line(out, "fsdl_degraded_responses_total{reason=\"%s\"} %" PRIu64
                     "\n",
                degraded_reason_name(static_cast<DegradedReason>(k)),
                degraded_[k].load(std::memory_order_relaxed));
  }

  append_line(out,
              "# HELP fsdl_reactor_stalls_total Watchdog-observed stall "
              "windows in which a reactor event loop made no progress.\n");
  append_line(out, "# TYPE fsdl_reactor_stalls_total counter\n");
  append_line(out, "fsdl_reactor_stalls_total %" PRIu64 "\n",
              reactor_stalls());
  append_line(out,
              "# HELP fsdl_worker_stalls_total Watchdog-observed stall "
              "windows in which the saturated worker pool completed no "
              "jobs.\n");
  append_line(out, "# TYPE fsdl_worker_stalls_total counter\n");
  append_line(out, "fsdl_worker_stalls_total %" PRIu64 "\n", worker_stalls());

  append_line(out,
              "# HELP fsdl_label_crc_failures_total Label files rejected at "
              "load because the body CRC32 did not match (process-wide).\n");
  append_line(out, "# TYPE fsdl_label_crc_failures_total counter\n");
  append_line(out, "fsdl_label_crc_failures_total %" PRIu64 "\n",
              labeling_crc_failures());

  // Failpoint observability: only rendered while points are armed, so a
  // torture run can assert its faults actually landed without the armed-
  // only subsystem polluting production scrapes.
  const auto failpoints = failpoint::stats();
  if (!failpoints.empty()) {
    append_line(out,
                "# HELP fsdl_failpoint_hits_total Armed failpoint "
                "evaluations by point (test/torture runs only).\n");
    append_line(out, "# TYPE fsdl_failpoint_hits_total counter\n");
    for (const auto& fp : failpoints) {
      append_line(out, "fsdl_failpoint_hits_total{point=\"%s\"} %" PRIu64 "\n",
                  fp.point.c_str(), fp.hits);
    }
    append_line(out,
                "# HELP fsdl_failpoint_fires_total Armed failpoint "
                "evaluations whose trigger injected the fault.\n");
    append_line(out, "# TYPE fsdl_failpoint_fires_total counter\n");
    for (const auto& fp : failpoints) {
      append_line(out,
                  "fsdl_failpoint_fires_total{point=\"%s\"} %" PRIu64 "\n",
                  fp.point.c_str(), fp.fires);
    }
  }

  append_line(out,
              "# HELP fsdl_prepared_cache_entries Fault sets currently "
              "prepared.\n");
  append_line(out, "# TYPE fsdl_prepared_cache_entries gauge\n");
  append_line(out, "fsdl_prepared_cache_entries %zu\n", cache.entries);
  append_line(out,
              "# HELP fsdl_prepared_cache_bytes Heap bytes of the prepared "
              "fault sets currently cached.\n");
  append_line(out, "# TYPE fsdl_prepared_cache_bytes gauge\n");
  append_line(out, "fsdl_prepared_cache_bytes %zu\n", cache.bytes);
  append_line(out, "# HELP fsdl_prepared_cache_events_total PreparedFaults "
                   "LRU events.\n");
  append_line(out, "# TYPE fsdl_prepared_cache_events_total counter\n");
  append_line(out, "fsdl_prepared_cache_events_total{event=\"hit\"} %" PRIu64
                   "\n",
              cache.hits);
  append_line(out, "fsdl_prepared_cache_events_total{event=\"miss\"} %" PRIu64
                   "\n",
              cache.misses);
  append_line(out,
              "fsdl_prepared_cache_events_total{event=\"eviction\"} %" PRIu64
              "\n",
              cache.evictions);

#if FSDL_TRACE_ENABLED
  // Tracing build: also expose the process-wide obs counters (they cover
  // every oracle in the process, not only this server's request path).
  const obs::CounterSnapshot snap = obs::snapshot_counters();
  append_line(out, "# HELP fsdl_obs_work_total Process-wide instrumentation "
                   "counters (FSDL_TRACE build).\n");
  append_line(out, "# TYPE fsdl_obs_work_total counter\n");
  for (unsigned k = 0; k < obs::kNumCounters; ++k) {
    append_line(out, "fsdl_obs_work_total{counter=\"%s\"} %" PRIu64 "\n",
                obs::counter_name(static_cast<obs::Counter>(k)),
                snap.values[k]);
  }
#endif
  return out;
}

}  // namespace fsdl::server
