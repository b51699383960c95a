#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "core/serialize.hpp"
#include "obs/trace.hpp"
#include "shard/wire_label.hpp"
#include "util/failpoint.hpp"
#include "util/jsonl.hpp"
#include "util/timer.hpp"

namespace fsdl::server {

TransportOptions Server::transport_of(const ServerOptions& options) {
  TransportOptions t;
  t.port = options.port;
  t.workers = options.workers;
  t.listen_backlog = options.listen_backlog;
  t.recv_timeout_ms = options.recv_timeout_ms;
  t.send_timeout_ms = options.send_timeout_ms;
  t.max_queued_connections = options.max_queued_connections;
  t.drain_deadline_ms = options.drain_deadline_ms;
  t.data_plane = options.data_plane;
  t.reactor_threads = options.reactor_threads;
  t.batch_window_us = options.batch_window_us;
  t.watchdog_interval_ms = options.watchdog_interval_ms;
  t.watchdog_stall_ms = options.watchdog_stall_ms;
  t.watchdog_abort_ms = options.watchdog_abort_ms;
  return t;
}

Server::Server(const ForbiddenSetOracle& oracle, const ServerOptions& options)
    : FrameServer(transport_of(options)), options_(options) {
  store_.publish(std::make_shared<const LabelSnapshot>(
      oracle, options.cache_capacity, options.cache_shards, /*epoch=*/1));
}

Server::Server(ForbiddenSetLabeling scheme, const ServerOptions& options)
    : FrameServer(transport_of(options)), options_(options) {
  store_.publish(std::make_shared<const LabelSnapshot>(
      std::move(scheme), options.cache_capacity, options.cache_shards,
      /*epoch=*/1));
}

Server::~Server() { stop(); }

std::string Server::reload(const std::string& path) {
  const std::string source = path.empty() ? options_.label_path : path;
  if (source.empty()) {
    metrics_.record_reload(ReloadResult::kError);
    return "no label path configured (server was started from in-memory "
           "labels)";
  }
  // One reload at a time; queries never wait on this lock — they read the
  // published snapshot, which is only touched by the final publish().
  std::lock_guard<std::mutex> lock(reload_mu_);
  reloading_.store(true, std::memory_order_release);
  try {
    // The slow part — disk read + CRC sweep + level-graph store rebuild —
    // happens entirely off to the side, on the caller's thread, against no
    // lock the query path takes.
    ForbiddenSetLabeling scheme = load_labeling(source);
    // Partition identity check: a shard server must keep serving *its*
    // partition across reloads. Accepting a file cut for a different shard
    // (or a different ring) would flip which vertices this process answers
    // while routers keep sending it the old ones — every such query would
    // fail, or worse, a stale ring could silently misattribute ownership.
    const shard::PartitionInfo& current = store_.current()->partition();
    const shard::PartitionInfo& incoming = scheme.partition();
    if (!(incoming == current)) {
      metrics_.record_reload(ReloadResult::kError);
      reloading_.store(false, std::memory_order_release);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "label file is shard %u/%u (ring seed %" PRIx64
                    ", %u points) but this server serves shard %u/%u "
                    "(ring seed %" PRIx64 ", %u points)",
                    incoming.shard_id, incoming.shard_count, incoming.ring_seed,
                    incoming.ring_points, current.shard_id,
                    current.shard_count, current.ring_seed,
                    current.ring_points);
      return buf;
    }
    // Snapshot-build failure: the file read fine but its level-graph store
    // could not be built (allocation failure, or a labeling the rebuild
    // rejects). Must classify as error with the old snapshot still serving,
    // like any other load failure.
    if (FSDL_FAILPOINT("server.reload.publish")) throw std::bad_alloc();
    auto snapshot = std::make_shared<const LabelSnapshot>(
        std::move(scheme), options_.cache_capacity, options_.cache_shards,
        store_.epoch() + 1);
    store_.publish(std::move(snapshot));
    metrics_.record_reload(ReloadResult::kOk);
    reloading_.store(false, std::memory_order_release);
    return {};
  } catch (const LabelingCrcError& e) {
    // Old labels keep serving. The distinct type (not the process-global
    // counter, which another load elsewhere could bump concurrently) is
    // what classifies this reload's failure as crc_failed.
    metrics_.record_reload(ReloadResult::kCrcFailed);
    reloading_.store(false, std::memory_order_release);
    return e.what();
  } catch (const std::exception& e) {
    // Old labels keep serving; the only trace is the counter + the message.
    metrics_.record_reload(ReloadResult::kError);
    reloading_.store(false, std::memory_order_release);
    return e.what();
  }
}

std::string Server::prometheus(const LabelSnapshot& snap) const {
  std::string out = metrics_.render_prometheus(snap.cache().stats());
  out +=
      "# HELP fsdl_label_store_bytes Heap bytes of the serving snapshot's "
      "level-graph store (every H_i plus the hub lists it holds).\n"
      "# TYPE fsdl_label_store_bytes gauge\n"
      "fsdl_label_store_bytes " +
      std::to_string(snap.oracle().store().bytes()) + "\n";
  return out;
}

std::string Server::health_text() const {
  const auto snap = store_.current();
  // "degraded" ranks below draining/loading: those already explain why the
  // server should not take traffic; degraded says it *is* taking traffic
  // but the watchdog sees a stalled loop or wedged pool.
  const char* state = draining() ? "draining"
                      : reloading_.load(std::memory_order_acquire)
                          ? "loading"
                      : watchdog_degraded() ? "degraded"
                                            : "ready";
  const shard::PartitionInfo& part = snap->partition();
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%s epoch=%" PRIu64 " n=%u shard=%u/%u plane=%s uptime_s=%" PRIu64
                " conns=%" PRId64,
                state, snap->epoch(), snap->oracle().scheme().num_vertices(),
                part.shard_id, part.shard_count, plane_name(), uptime_s(),
                open_connections());
  return buf;
}

namespace {

/// The distinct "wrong shard" refusal (satellite b): names the owner so a
/// misconfigured client (or a router with a stale ring) can see exactly
/// where the vertex lives instead of a generic failure.
Response wrong_shard_response(const char* what, Vertex v,
                              std::uint32_t owner,
                              const shard::PartitionInfo& part) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "%s %u not on this shard: owned by shard %u/%u (this server "
                "serves shard %u/%u)",
                what, v, owner, part.shard_count, part.shard_id,
                part.shard_count);
  return error_response(buf);
}

Response out_of_range_response(const char* what, Vertex v, Vertex n) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s %u out of range (n=%u)", what, v, n);
  return error_response(buf);
}

}  // namespace

Response Server::handle(const Request& req) {
  WallTimer timer;
  Response resp;
  // One snapshot per request: labels, oracle, and prepared cache stay
  // mutually consistent for the request's whole lifetime even if a reload
  // publishes a new epoch mid-flight (RCU-style — the shared_ptr keeps the
  // old snapshot alive until the last reader finishes).
  const std::shared_ptr<const LabelSnapshot> snap = store_.current();
  const ForbiddenSetOracle& oracle = snap->oracle();
  switch (req.opcode) {
    case Opcode::kStats: {
      resp.text = metrics_.render(snap->cache().stats());
      metrics_.record(RequestType::kStats, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kMetrics: {
      resp.text = prometheus(*snap);
      metrics_.record(RequestType::kMetrics, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kFleetStats: {
      // A shard server is a fleet of one: FLEET_STATS is its own METRICS
      // rendering. The router overrides this with the real scatter/merge.
      resp.text = prometheus(*snap);
      metrics_.record(RequestType::kFleetStats, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kHealth: {
      resp.text = health_text();
      metrics_.record(RequestType::kHealth, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kReload: {
      if (!options_.admin) {
        return error_response("RELOAD refused: admin commands disabled "
                              "(start the server with --admin)");
      }
      const std::string error = reload();
      metrics_.record(RequestType::kReload, 0, timer.elapsed_us());
      if (!error.empty()) return error_response("reload failed: " + error);
      char buf[64];
      std::snprintf(buf, sizeof buf, "reloaded epoch=%" PRIu64,
                    store_.epoch());
      resp.text = buf;
      return resp;
    }
    case Opcode::kGetLabel: {
      obs::TraceRecorder rec(req.trace.trace_hi, req.trace.trace_lo,
                             req.trace.parent_span, req.trace.sampled());
      const std::uint64_t root_span = rec.new_span();
      const std::uint64_t root_start = obs::epoch_us();
      const Vertex v = req.pairs.at(0).first;
      const Vertex n = oracle.scheme().num_vertices();
      if (v >= n) return out_of_range_response("vertex id", v, n);
      // Lookup phase: resolve the vertex's owner on the ring and gate.
      const std::uint64_t lookup_start = obs::epoch_us();
      const std::uint32_t owner = snap->partitioner().owner(v);
      const shard::PartitionInfo& part = snap->partition();
      if (owner != part.shard_id) {
        return wrong_shard_response("vertex id", v, owner, part);
      }
      if (rec.active()) {
        rec.add("shard.lookup", rec.new_span(), root_span, lookup_start,
                static_cast<double>(obs::epoch_us() - lookup_start));
      }
      // Serialize phase: the wire-label blob (label bits + scheme header).
      const std::uint64_t serialize_start = obs::epoch_us();
      resp.text = shard::encode_wire_label(oracle.scheme(), v, snap->epoch());
      if (rec.active()) {
        rec.add("shard.serialize", rec.new_span(), root_span, serialize_start,
                static_cast<double>(obs::epoch_us() - serialize_start));
        rec.add("shard.get_label", root_span, rec.parent_span(), root_start,
                timer.elapsed_us());
      }
      rec.flush(false);
      metrics_.record(RequestType::kGetLabel, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kDist:
    case Opcode::kBatch: {
      if (req.pairs.empty()) return error_response("empty batch");
      const Vertex n = oracle.scheme().num_vertices();
      const shard::PartitionInfo& part = snap->partition();
      // Ownership gate for a shard server: the decoder would read an empty
      // bit buffer for an unowned vertex and produce garbage, so unowned
      // endpoints are refused with the owner named (satellite b). Fault
      // vertices only need their ids (membership tests), not their labels,
      // so they pass on the range check alone.
      for (const auto& [s, t] : req.pairs) {
        if (s >= n) return out_of_range_response("vertex id", s, n);
        if (t >= n) return out_of_range_response("vertex id", t, n);
        if (part.sharded()) {
          const std::uint32_t owner_s = snap->partitioner().owner(s);
          if (owner_s != part.shard_id) {
            return wrong_shard_response("vertex id", s, owner_s, part);
          }
          const std::uint32_t owner_t = snap->partitioner().owner(t);
          if (owner_t != part.shard_id) {
            return wrong_shard_response("vertex id", t, owner_t, part);
          }
        }
      }
      for (Vertex v : req.faults.vertices()) {
        if (v >= n) return out_of_range_response("fault vertex id", v, n);
      }
      for (const auto& [a, b] : req.faults.edges()) {
        if (a >= n) return out_of_range_response("fault edge id", a, n);
        if (b >= n) return out_of_range_response("fault edge id", b, n);
      }
      // Request budget: the configured per-request deadline clamped by the
      // remaining budget the client/router forwarded in the trace context
      // (a hop must never work past what the caller will still accept).
      double deadline_us = options_.request_deadline_ms * 1000.0;
      if (req.trace.present && req.trace.deadline_us > 0) {
        const double remote = static_cast<double>(req.trace.deadline_us);
        deadline_us = deadline_us > 0 ? std::min(deadline_us, remote) : remote;
      }
      obs::TraceRecorder rec(req.trace.trace_hi, req.trace.trace_lo,
                             req.trace.parent_span, req.trace.sampled());
      const std::uint64_t root_span = rec.new_span();
      const std::uint64_t root_start = obs::epoch_us();
      // Span-tree capture for the slow-query log: only spans completed on
      // this worker thread after the mark belong to this request.
      const std::uint64_t span_mark = obs::span_mark();
      QueryStats request_stats;
      resp.distances.reserve(req.pairs.size());
      bool deadline_hit = false;
      if (req.faults.empty()) {
        // No faults: skip the cache, decode directly (the fault-free path
        // needs no certification state).
        for (const auto& [s, t] : req.pairs) {
          if (deadline_us > 0 && timer.elapsed_us() > deadline_us) {
            deadline_hit = true;
            break;
          }
          const QueryResult r = oracle.query(s, t, req.faults);
          resp.distances.push_back(r.distance);
          request_stats.accumulate(r.stats);
        }
      } else {
        const std::uint64_t lookup_start = obs::epoch_us();
        const auto prepared = snap->cache().get(req.faults);
        if (rec.active()) {
          rec.add("shard.lookup", rec.new_span(), root_span, lookup_start,
                  static_cast<double>(obs::epoch_us() - lookup_start));
        }
        for (const auto& [s, t] : req.pairs) {
          if (deadline_us > 0 && timer.elapsed_us() > deadline_us) {
            deadline_hit = true;
            break;
          }
          // PreparedFaults handles forbidden endpoints (returns kInfDist).
          const QueryResult r =
              prepared->query(oracle.label(s), oracle.label(t));
          resp.distances.push_back(r.distance);
          request_stats.accumulate(r.stats);
        }
      }
      const double total_us = timer.elapsed_us();
      metrics_.record(
          req.opcode == Opcode::kDist ? RequestType::kDist
                                      : RequestType::kBatch,
          resp.distances.size(), total_us);
      metrics_.record_query_stats(request_stats);
      const bool slow =
          options_.slow_query_us > 0 && total_us >= options_.slow_query_us;
      if (rec.active()) {
        rec.add("shard.query", root_span, rec.parent_span(), root_start,
                total_us);
      }
      rec.flush(slow);
      if (slow) {
        log_slow_query(req, request_stats, total_us,
                       obs::format_span_tree(obs::spans_since(span_mark)),
                       rec.active() ? rec.trace_hi() : req.trace.trace_hi,
                       rec.active() ? rec.trace_lo() : req.trace.trace_lo);
      }
      if (deadline_hit) {
        // Partial batches are not returnable (the client cannot tell which
        // pairs were answered); the whole request times out.
        metrics_.record_failure(FailureCounter::kRequestTimeouts);
        return error_response("request deadline exceeded", Status::kTimeout);
      }
      return resp;
    }
  }
  return error_response("unhandled opcode");
}

void Server::log_slow_query(const Request& req, const QueryStats& stats,
                            double total_us, const std::string& span_tree,
                            std::uint64_t trace_hi, std::uint64_t trace_lo) {
  // One JSON object per report, same flat schema (and parser) as the
  // distributed-tracing event log, with kind="slow_query". Keys are stable;
  // the trace id (all-zero when the request carried no context and no
  // event log was open) joins the report to router/shard span lines.
  JsonlWriter w;
  w.field_u64("ts",
              static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count()))
      .field("svc", "shard")
#if !defined(_WIN32)
      .field_u64("pid", static_cast<std::uint64_t>(getpid()))
#endif
      .field("kind", "slow_query")
      .field("op", req.opcode == Opcode::kDist ? "DIST" : "BATCH")
      .field_hex128("trace", trace_hi, trace_lo)
      .field_u64("pairs", req.pairs.size())
      .field_u64("fault_vertices", req.faults.vertices().size())
      .field_u64("fault_edges", req.faults.edges().size())
      .field_double("total_us", total_us)
      .field_double("assemble_us", stats.assemble_us)
      .field_double("dijkstra_us", stats.dijkstra_us)
      .field_u64("sketch_vertices", stats.sketch_vertices)
      .field_u64("sketch_edges", stats.sketch_edges)
      .field_u64("pb_checks", stats.pb_checks)
      .field_u64("relaxations", stats.dijkstra_relaxations);
  if (!span_tree.empty()) w.field("span_tree", span_tree);
  const std::string report = w.line() + "\n";
  if (options_.slow_query_sink) {
    options_.slow_query_sink(report);
  } else {
    // One mutex-serialized fputs keeps concurrent workers' reports whole.
    static std::mutex stderr_mu;
    std::lock_guard<std::mutex> lock(stderr_mu);
    std::fputs(report.c_str(), stderr);
  }
}

}  // namespace fsdl::server
