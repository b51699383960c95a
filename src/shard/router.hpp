// Scatter-gather router over a fleet of sharded fsdl_serve processes.
//
//                         ┌── shard 0: replica A, replica B   (ReplicaClient)
//   client ──► Router ────┼── shard 1: replica A, replica B   (ReplicaClient)
//            (FrameServer)└── ...
//
// The router speaks the *existing* wire protocol on its front door — a
// client cannot tell a router from a single fsdl_serve holding the whole
// labeling — and decomposes every DIST/BATCH into the fetch/decode split
// the label format makes natural:
//
//   fetch:  the labels of s, t, every forbidden vertex, and both endpoints
//           of every forbidden edge are pulled with GET_LABEL from the
//           shards that own them (consistent-hash ring, shard/partition.hpp),
//           through one ReplicaClient per shard — so the failover unit is
//           (shard, replica) and the breakers / hedging / retry machinery
//           of the HA client applies per shard unchanged. Fetched labels
//           land in a bounded sharded LRU; a hot working set stops paying
//           the network round trip entirely.
//   decode: the forbidden-set decoder runs *in the router* on the gathered
//           labels, each decoded into a single-label LevelGraphStore
//           (O(label) in size) when it is fetched, once its reported n
//           matches the fleet's (PreparedFaults, cached per fault set —
//           the same Lemma 2.6 amortization the single server uses). The
//           answer is exactly what a monolithic server would compute: the
//           decoder is a pure function of the labels, and the labels are
//           byte-identical to the unsharded file's (split is lossless).
//
// Safety over availability: every label carries its scheme description
// (shard/wire_label.hpp) and the router refuses to combine labels from
// incompatible schemes; a shard that does not own a requested vertex
// refuses with a named error rather than guessing. A wrong ring
// configuration therefore degrades to visible errors, never to silently
// wrong distances. When every replica of an owning shard is down, the
// affected query fails with TIMEOUT (retryable) while queries touching
// only healthy shards keep answering.
//
// Graceful degradation (stale_serve, on by default): availability under
// shard loss, without ever lying about it.
//   * stale-label serving: a cache hit whose owning shard is down is served
//     anyway, and the response is marked Status::kDegraded carrying the
//     oldest snapshot epoch consulted — the client learns both that the
//     answer came from a cached snapshot and which one. A cache hit whose
//     epoch is older than the shard's current one is refetched while the
//     shard is up; if the fetch fails, the stale entry is the fallback.
//     Degraded responses are counted per reason in
//     fsdl_degraded_responses_total{reason=stale_label|shard_down}.
//   * retry budgets: each shard channel owns a token bucket; failover
//     attempts beyond a request's first each cost a token and successes
//     refill it, so a dead shard decays to ~one probe attempt per request
//     instead of amplifying every query into a full failover sweep.
//   * deadline-aware give-up: when the client's forwarded deadline is
//     already blown, the fetch is not attempted at all — no budget is spent
//     producing an answer nobody is waiting for.
//   * recovery: while a shard is marked down, the query path sends at most
//     one inline HEALTH probe per probe interval (default: the breaker
//     cooldown); a "ready" answer clears the mark, so full non-degraded
//     service resumes within one breaker half-open cycle of a restart.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/decoder.hpp"
#include "core/level_store.hpp"
#include "obs/trace.hpp"
#include "server/frame_server.hpp"
#include "server/prepared_cache.hpp"
#include "server/replica_client.hpp"
#include "shard/partition.hpp"
#include "shard/wire_label.hpp"
#include "util/stats.hpp"

namespace fsdl::shard {

struct RouterOptions {
  server::TransportOptions transport;
  /// shards[i] = replica endpoints of shard i; size() is the shard count
  /// the ring is built for. Every inner list needs >= 1 endpoint.
  std::vector<std::vector<server::Endpoint>> shards;
  /// Failover/breaker/hedging knobs applied to each shard's ReplicaClient.
  server::ReplicaClientOptions replica;
  /// Ring parameters; must match the values the labeling was split with
  /// (a mismatch is safe — shards refuse unowned vertices — but useless).
  std::uint64_t ring_seed = kDefaultRingSeed;
  std::uint32_t ring_points = kDefaultRingPoints;
  /// Decoded labels kept in the router's LRU, across all cache shards.
  std::size_t label_cache_capacity = 4096;
  std::size_t label_cache_shards = 8;
  /// Distinct fault sets kept prepared (each pins its fault labels).
  std::size_t prepared_capacity = 64;
  /// Degraded mode: serve cached labels with Status::kDegraded when their
  /// owning shard is unreachable (see the header comment). Off restores the
  /// fail-with-TIMEOUT behavior.
  bool stale_serve = true;
  /// Retry-budget token bucket per shard: every failover attempt beyond a
  /// request's first costs one token, every successful call refills
  /// `retry_budget_refill` (never above the cap). cap <= 0 disables the
  /// budget and restores unbounded (per-request-capped) failover sweeps.
  double retry_budget_cap = 8.0;
  double retry_budget_refill = 0.5;
  /// Minimum spacing of inline recovery probes to a down shard;
  /// 0 = replica.breaker_cooldown_ms.
  unsigned probe_interval_ms = 0;
};

class Router : public server::FrameServer {
 public:
  /// Throws std::invalid_argument on an empty shard list or an empty
  /// replica list for any shard.
  explicit Router(const RouterOptions& options);
  ~Router() override;

  /// Front-door dispatch: DIST/BATCH scatter-gather + local decode,
  /// GET_LABEL proxied to the owning shard, STATS/METRICS/HEALTH answered
  /// locally, RELOAD refused (reload the shards, not the router).
  server::Response handle(const server::Request& req) override;

  /// "ready|draining n=N shards=K" — N is learned from the shard fleet's
  /// HEALTH replies at start().
  std::string health_text() const;

  /// Aggregated stats of the prepared-fault-set cache (label-cache traffic
  /// is in the Metrics registry: fsdl_router_label_cache_*_total).
  server::PreparedCache::Stats prepared_stats() const;

  /// Router registry rendering plus the per-shard GET_LABEL round-trip
  /// latency histograms
  /// (fsdl_router_shard_fetch_latency_microseconds{shard="k"}).
  std::string prometheus() const;

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(channels_.size());
  }
  /// Vertex count of the routed labeling (0 before start()).
  Vertex num_vertices() const noexcept { return total_n_; }

 protected:
  /// Topology validation: one HEALTH round trip per shard, requiring each
  /// to report `shard=I/K` with I = its configured index and K = the
  /// configured shard count, and all to agree on n. Throws on mismatch —
  /// a router wired to the wrong fleet must not come up.
  void on_start() override;

 private:
  /// One shard's replica fan: ReplicaClient is single-threaded by design,
  /// so workers serialize on the channel mutex (label-cache hits skip it).
  struct ShardChannel {
    std::mutex mu;
    server::ReplicaClient client;
    /// Retry-budget tokens left (guarded by mu).
    double tokens;
    /// True after a fetch exhausted its replica attempts; read lock-free on
    /// the cache-hit path, cleared by a successful call or recovery probe.
    std::atomic<bool> down{false};
    /// Steady-clock ms gate: no recovery probe before this instant. CAS'd
    /// forward by whichever query thread wins the probe slot.
    std::atomic<std::uint64_t> next_probe_ms{0};
    /// Last snapshot epoch this shard reported (HEALTH at start(), then
    /// every fetched label). Cache entries below it are stale. Not a max:
    /// a restarted replica legitimately resets its epoch.
    std::atomic<std::uint64_t> known_epoch{0};
    ShardChannel(std::vector<server::Endpoint> endpoints,
                 const server::ReplicaClientOptions& options,
                 server::Metrics* metrics, double budget_tokens)
        : client(std::move(endpoints), options, metrics),
          tokens(budget_tokens) {}
  };

  /// Sharded LRU of fetched labels, each a single-label LevelGraphStore.
  /// Entries are shared_ptr so eviction never invalidates a query (or a
  /// PreparedFaults pin) in flight.
  struct CacheShard {
    struct Entry {
      Vertex vertex;
      std::shared_ptr<const LevelGraphStore> label;
      /// Snapshot epoch the label was fetched under (stale-serve marking).
      std::uint64_t epoch = 0;
    };
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Vertex, std::list<Entry>::iterator> index;
  };

  /// A prepared fault set plus the label pins that keep the stores behind
  /// PreparedFaults' label views alive for as long as any query holds this.
  struct PinnedPrepared {
    std::vector<std::shared_ptr<const LevelGraphStore>> pins;
    std::unique_ptr<const PreparedFaults> prepared;
  };
  struct PreparedEntry {
    server::FaultKey key;
    std::shared_ptr<const PinnedPrepared> value;
  };

  CacheShard& cache_shard(Vertex v);
  std::shared_ptr<const LevelGraphStore> cache_get(Vertex v,
                                               std::uint64_t* epoch = nullptr);
  void cache_put(Vertex v, std::shared_ptr<const LevelGraphStore> label,
                 std::uint64_t epoch);

  /// Degraded-serving bookkeeping for one query: how many labels were
  /// served from cache despite their shard being down or their epoch being
  /// behind, and the oldest such epoch (what Response::epoch reports).
  struct DegradedServe {
    unsigned stale = 0;
    unsigned shard_down = 0;
    std::uint64_t oldest_epoch = ~static_cast<std::uint64_t>(0);
    bool any() const noexcept { return stale + shard_down != 0; }
    void note(bool is_stale, std::uint64_t epoch) noexcept {
      (is_stale ? stale : shard_down) += 1;
      if (epoch < oldest_epoch) oldest_epoch = epoch;
    }
  };

  /// Settle the retry-budget bucket after one call on `ch` (must hold
  /// ch.mu): retries performed since `retries_before` are paid for, and a
  /// success earns the refill.
  void settle_budget(ShardChannel& ch, std::uint64_t retries_before,
                     bool success);
  /// Flag `shard` down and arm its probe gate one interval out.
  void mark_shard_down(std::size_t shard);
  /// True when `shard` can serve. While it is marked down, at most one
  /// caller per probe interval sends an inline HEALTH probe (try_lock only
  /// — never queue a cache hit behind a failover sweep) and clears the
  /// mark on a "ready" answer.
  bool shard_available(std::size_t shard);
  std::uint64_t probe_interval_ms() const;

  /// Fetch one vertex's label from its owning shard (cache bypassed by the
  /// caller). `trace` rides the GET_LABEL frame upstream; the round trip is
  /// also recorded into that shard's fetch-latency histogram. On failure
  /// fills `error` and returns nullptr; kError means the shard refused (bad
  /// vertex / incompatible scheme), kTimeout means every replica of the
  /// shard was unavailable (or the retry budget / client deadline ran out
  /// first). On success `epoch` reports the snapshot epoch the label was
  /// served under.
  std::shared_ptr<const LevelGraphStore> fetch_label(
      Vertex v, const server::TraceContext& trace, server::Response& error,
      std::uint64_t& epoch);

  /// The per-request recorder plus the span the fetch spans hang under.
  /// Bundled into a shard-namespace struct (rather than passed as an
  /// obs::TraceRecorder& parameter) so no fsdl::obs:: type name appears in
  /// any mangled symbol — the FSDL_TRACE=OFF nm guard asserts OFF binaries
  /// carry zero obs symbols, and parameter types leak into symbol names.
  struct QueryTrace {
    obs::TraceRecorder& rec;
    std::uint64_t root_span;
  };

  /// Cache-or-fetch every vertex in `needed` (deduplicated), gathering
  /// misses per owning shard and fetching shard groups concurrently when
  /// more than one shard is involved. Each shard group becomes one
  /// "router.fetch" span under `trace.root_span` (its id is the parent
  /// span the shard sees); `upstream` is the trace context to forward,
  /// minus the budget already spent. Returns false and fills `error` if
  /// any label could not be obtained; labels served despite a down shard
  /// or a stale epoch are tallied into `degraded` (stale-label serving).
  bool gather_labels(
      const std::vector<Vertex>& needed, QueryTrace trace,
      const server::TraceContext& upstream,
      std::unordered_map<Vertex, std::shared_ptr<const LevelGraphStore>>& out,
      server::Response& error, DegradedServe& degraded);

  /// FLEET_STATS body: own prometheus() + render_fleet over one METRICS
  /// scrape of every shard channel.
  server::Response fleet_stats();

  /// First fetched label fixes the scheme; later labels must match it.
  bool adopt_meta(const WireLabelMeta& meta, std::string& error);

  std::shared_ptr<const PinnedPrepared> prepared_get(
      const FaultSet& faults,
      const std::unordered_map<Vertex, std::shared_ptr<const LevelGraphStore>>&
          labels);

  server::Response handle_query(const server::Request& req);

  RouterOptions options_;
  Partitioner partitioner_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  std::vector<std::unique_ptr<CacheShard>> cache_;
  std::size_t per_cache_shard_capacity_;

  /// GET_LABEL round-trip latency per owning shard (the straggler signal —
  /// which shard dominates scatter-gather). Guarded by fetch_hist_mu_; the
  /// channel mutex is not reused because prometheus() must not contend
  /// with in-flight fetches.
  mutable std::mutex fetch_hist_mu_;
  std::vector<Histogram> fetch_latency_;

  /// Scheme description adopted from the first fetched label; guarded by
  /// meta_mu_ (read on every fetch, written once).
  mutable std::mutex meta_mu_;
  bool meta_known_ = false;
  WireLabelMeta meta_;
  /// Learned from the fleet's HEALTH replies during on_start().
  Vertex total_n_ = 0;

  mutable std::mutex prepared_mu_;
  std::list<PreparedEntry> prepared_lru_;  // front = most recently used
  std::unordered_map<std::uint64_t,
                     std::vector<std::list<PreparedEntry>::iterator>>
      prepared_index_;
  std::uint64_t prepared_hits_ = 0;
  std::uint64_t prepared_misses_ = 0;
  std::uint64_t prepared_evictions_ = 0;
};

}  // namespace fsdl::shard
