// fsdl query server: a multithreaded TCP service over one read-only
// ForbiddenSetOracle.
//
// Architecture (one box, the §1 "centralized oracle" deployed):
//
//   FrameServer transport ──► handle() ──► shared ForbiddenSetOracle
//    (accept thread, pool,      │                  (immutable labels)
//     deadlines, drain —        ├─► PreparedCache (LRU of PreparedFaults)
//     server/frame_server.hpp)  └─► Metrics (counters + histograms)
//
// The transport — accept loop with transient-errno backoff, admission
// control (OVERLOADED sheds), per-connection deadlines, frame CRC
// handling, graceful drain with a HEALTH exemption — lives in the
// FrameServer base class and is shared verbatim with the scatter-gather
// router (shard/router.hpp). What this class adds on top:
//   * hot label reload: reload() loads a new label file, validates its CRC
//     *and* its partition identity, and atomically publishes it through
//     the LabelStore while in-flight requests finish on the labels they
//     started with (see server/label_store.hpp). A corrupt or
//     wrong-partition file is rejected and the old labels keep serving;
//   * shard awareness: a server started on a shard file answers only for
//     the vertices its shard owns — queries for other vertices get a
//     distinct error naming the owning shard, and GET_LABEL hands out raw
//     label bits for the router tier's fetch/decode split;
//   * query handling: DIST/BATCH with PreparedFaults amortization,
//     request deadlines, slow-query logging, decoder stage counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/oracle.hpp"
#include "server/frame_server.hpp"
#include "server/label_store.hpp"
#include "server/metrics.hpp"
#include "server/prepared_cache.hpp"
#include "server/protocol.hpp"
#include "server/thread_pool.hpp"

namespace fsdl::server {

struct ServerOptions {
  /// 0 = let the kernel pick an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  unsigned workers = 4;
  /// Max distinct fault sets kept prepared.
  std::size_t cache_capacity = 256;
  std::size_t cache_shards = 8;
  /// listen(2) backlog. Connections beyond it queue in the kernel (or are
  /// refused), before user-space admission control even sees them.
  int listen_backlog = 64;
  /// Socket receive deadline per recv() call, milliseconds; 0 disables.
  /// When it fires the connection is evicted with a TIMEOUT frame — this is
  /// both the slowloris defense (partial frame, no progress) and the idle
  /// reaper (connection holding a worker without traffic).
  unsigned recv_timeout_ms = 0;
  /// Socket send deadline, milliseconds; 0 disables. A peer that stops
  /// reading cannot wedge a worker forever.
  unsigned send_timeout_ms = 0;
  /// Compute budget for one DIST/BATCH request, milliseconds; 0 disables.
  /// Exceeding it returns a TIMEOUT response instead of the distances.
  double request_deadline_ms = 0.0;
  /// Admission-control depth beyond `workers` (see
  /// TransportOptions::max_queued_connections): pending *requests* on the
  /// reactor plane (a shed is one OVERLOADED reply, connection kept),
  /// waiting *connections* on the thread-per-connection plane. Default:
  /// unbounded (historical behavior).
  std::size_t max_queued_connections = ThreadPool::kUnboundedQueue;
  /// How long stop() waits for in-flight requests to finish before tearing
  /// connections down, milliseconds. 0 = hard stop (historical behavior).
  unsigned drain_deadline_ms = 0;
  /// Transport implementation: the epoll reactor (default) or the
  /// historical blocking thread-per-connection plane (A/B benchmarking).
  DataPlane data_plane = DataPlane::kEpollReactor;
  /// Event-loop threads for the reactor plane (0 coerced to 1).
  unsigned reactor_threads = 1;
  /// Fault-set batching window, microseconds; 0 disables coalescing. See
  /// TransportOptions::batch_window_us — leaders never wait, so this only
  /// bounds how long same-key followers ride behind a slow cold prepare.
  unsigned batch_window_us = 100;
  /// Watchdog knobs, forwarded to TransportOptions (see frame_server.hpp):
  /// sampling interval (0 disables), stall window (counts a stall + flips
  /// HEALTH to "degraded"), and the opt-in hard-wedge SIGABRT threshold.
  unsigned watchdog_interval_ms = 250;
  unsigned watchdog_stall_ms = 2000;
  unsigned watchdog_abort_ms = 0;
  /// Slow-query log threshold in microseconds; 0 disables. A DIST/BATCH
  /// request slower than this emits one JSON line (kind="slow_query", the
  /// same flat schema and parser as the distributed-tracing event log:
  /// request shape, fault-set size, per-stage micros, trace id, and — in
  /// FSDL_TRACE builds at span level — the span tree) through
  /// `slow_query_sink`. In FSDL_TRACE builds with an open event log, the
  /// request's spans are also flushed there regardless of sampling.
  double slow_query_us = 0.0;
  /// Destination for slow-query reports; defaults to stderr. The sink is
  /// called from worker threads and must be callable concurrently (the
  /// default serializes writes internally).
  std::function<void(const std::string&)> slow_query_sink;
  /// Label file backing this server; the source for SIGHUP / RELOAD hot
  /// reloads. Empty = reloads refused (e.g. labels built in memory).
  std::string label_path;
  /// Allow the RELOAD admin opcode over the wire. Off by default: a network
  /// peer should not be able to force disk reads unless explicitly enabled
  /// (SIGHUP reloads work regardless — sending a signal already requires
  /// being on the box).
  bool admin = false;
};

class Server : public FrameServer {
 public:
  /// Borrow an externally owned oracle (it must outlive the server). A
  /// later reload() replaces it with server-owned labels loaded from disk.
  Server(const ForbiddenSetOracle& oracle, const ServerOptions& options);
  /// Own the labels from the start (what fsdl_serve uses): the server
  /// builds its oracle + prepared cache around the given labeling.
  Server(ForbiddenSetLabeling scheme, const ServerOptions& options);
  ~Server() override;

  /// Hot label reload: load `path` (empty = options.label_path), validate
  /// its CRC and that it describes the same partition this server was
  /// started on (same shard id + ring), and atomically swap the labels +
  /// oracle + prepared cache as one snapshot. In-flight requests finish on
  /// the labels they started with; new requests see the new epoch. Returns
  /// the empty string on success or a human-readable error (in which case
  /// the old labels keep serving). Thread-safe; concurrent reloads
  /// serialize.
  std::string reload(const std::string& path = "");

  /// Monotonic label version: 1 for the labels the server started with,
  /// +1 per successful reload.
  std::uint64_t label_epoch() const { return store_.epoch(); }

  /// Health probe body: "loading|ready|draining epoch=E n=N shard=I/K"
  /// (shard=0/1 for an unsharded server). Any reply at all means "alive";
  /// `loading` means a reload is currently in progress (queries still
  /// answered from the old labels).
  std::string health_text() const;

  /// Stats of the *current* snapshot's prepared cache (reset on reload —
  /// the old cache dies with the old labels).
  PreparedCache::Stats cache_stats() const {
    return store_.current()->cache().stats();
  }

  /// Prometheus text exposition of the current registry + cache state, plus
  /// the snapshot's fsdl_label_store_bytes gauge (the METRICS opcode body;
  /// also written by fsdl_serve --metrics-dump).
  std::string prometheus() const { return prometheus(*store_.current()); }

  /// Answer one decoded request — the transport-independent core, shared
  /// with tests that exercise dispatch without sockets.
  Response handle(const Request& req) override;


 private:
  void log_slow_query(const Request& req, const QueryStats& stats,
                      double total_us, const std::string& span_tree,
                      std::uint64_t trace_hi, std::uint64_t trace_lo);
  static TransportOptions transport_of(const ServerOptions& options);
  std::string prometheus(const LabelSnapshot& snap) const;

  ServerOptions options_;
  LabelStore store_;
  /// Serializes reloads (the swap itself is the store's one pointer write).
  std::mutex reload_mu_;
  std::atomic<bool> reloading_{false};
};

}  // namespace fsdl::server
