#include "shard/router.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

#include "server/fleet.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"

namespace fsdl::shard {

namespace {

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

using server::FaultKey;
using server::LabelFetchResult;
using server::Opcode;
using server::Request;
using server::RequestType;
using server::Response;
using server::Status;
using server::error_response;

Router::Router(const RouterOptions& options)
    : FrameServer(options.transport),
      options_(options),
      partitioner_(static_cast<std::uint32_t>(options.shards.size()),
                   options.ring_seed, options.ring_points) {
  if (options.shards.empty()) {
    throw std::invalid_argument("Router needs at least one shard");
  }
  channels_.reserve(options.shards.size());
  for (std::size_t i = 0; i < options.shards.size(); ++i) {
    if (options.shards[i].empty()) {
      throw std::invalid_argument("shard " + std::to_string(i) +
                                  " has no replica endpoints");
    }
    channels_.push_back(std::make_unique<ShardChannel>(
        options.shards[i], options_.replica, &metrics_,
        std::max(0.0, options_.retry_budget_cap)));
  }
  const std::size_t cache_shards =
      options.label_cache_shards == 0 ? 1 : options.label_cache_shards;
  cache_.reserve(cache_shards);
  for (std::size_t i = 0; i < cache_shards; ++i) {
    cache_.push_back(std::make_unique<CacheShard>());
  }
  per_cache_shard_capacity_ =
      std::max<std::size_t>(1, options.label_cache_capacity / cache_shards);
  fetch_latency_.resize(channels_.size());
}

Router::~Router() { stop(); }

void Router::on_start() {
  // Topology validation: every shard must identify as the shard the router
  // thinks it is talking to, under the same shard count, and all must agree
  // on n. This catches the operational failure modes — endpoint lists in
  // the wrong order, a fleet cut at a different shard count, a stray
  // unsharded server — at startup, before any query can be misrouted.
  Vertex n = 0;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Request req;
    req.opcode = Opcode::kHealth;
    Response resp;
    try {
      std::lock_guard<std::mutex> lock(channels_[i]->mu);
      resp = channels_[i]->client.call_idempotent(req);
    } catch (const std::exception& e) {
      throw std::runtime_error("shard " + std::to_string(i) +
                               " health check failed: " + e.what());
    }
    unsigned shard_n = 0, shard_id = 0, shard_count = 0;
    std::uint64_t epoch = 0;
    if (std::sscanf(resp.text.c_str(),
                    "%*s epoch=%" SCNu64 " n=%u shard=%u/%u", &epoch,
                    &shard_n, &shard_id, &shard_count) != 4) {
      throw std::runtime_error("shard " + std::to_string(i) +
                               " reports no shard identity (health: \"" +
                               resp.text + "\")");
    }
    if (shard_id != i || shard_count != channels_.size()) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "endpoint configured as shard %zu identifies as shard "
                    "%u/%u (router expects %zu shards)",
                    i, shard_id, shard_count, channels_.size());
      throw std::runtime_error(buf);
    }
    if (i == 0) {
      n = shard_n;
    } else if (shard_n != n) {
      throw std::runtime_error(
          "shards disagree on vertex count (shard 0: n=" + std::to_string(n) +
          ", shard " + std::to_string(i) + ": n=" + std::to_string(shard_n) +
          ")");
    }
    // Seed the staleness baseline: labels cached from now on are fresh
    // relative to this epoch until the shard reports a different one.
    channels_[i]->known_epoch.store(epoch, std::memory_order_relaxed);
  }
  total_n_ = n;
}

Router::CacheShard& Router::cache_shard(Vertex v) {
  return *cache_[v % cache_.size()];
}

std::shared_ptr<const LevelGraphStore> Router::cache_get(Vertex v,
                                                     std::uint64_t* epoch) {
  CacheShard& shard = cache_shard(v);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(v);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (epoch != nullptr) *epoch = it->second->epoch;
  return it->second->label;
}

void Router::cache_put(Vertex v, std::shared_ptr<const LevelGraphStore> label,
                       std::uint64_t epoch) {
  CacheShard& shard = cache_shard(v);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(v);
  if (it != shard.index.end()) {
    // Racing fetch won; still advance the epoch so a refetched stale entry
    // stops reading as stale.
    if (epoch != it->second->epoch) {
      it->second->label = std::move(label);
      it->second->epoch = epoch;
    }
    return;
  }
  shard.lru.push_front(CacheShard::Entry{v, std::move(label), epoch});
  shard.index.emplace(v, shard.lru.begin());
  while (shard.lru.size() > per_cache_shard_capacity_) {
    shard.index.erase(shard.lru.back().vertex);
    shard.lru.pop_back();
  }
}

void Router::settle_budget(ShardChannel& ch, std::uint64_t retries_before,
                           bool success) {
  if (options_.retry_budget_cap <= 0) return;
  const double spent = static_cast<double>(
      ch.client.replica_stats().retries - retries_before);
  ch.tokens = std::max(0.0, ch.tokens - spent);
  if (success) {
    ch.tokens = std::min(options_.retry_budget_cap,
                         ch.tokens + options_.retry_budget_refill);
  }
}

std::uint64_t Router::probe_interval_ms() const {
  return options_.probe_interval_ms != 0
             ? options_.probe_interval_ms
             : std::max(1u, options_.replica.breaker_cooldown_ms);
}

void Router::mark_shard_down(std::size_t shard) {
  ShardChannel& ch = *channels_[shard];
  if (!ch.down.exchange(true, std::memory_order_relaxed)) {
    // First probe one interval out: the replicas' breakers need at least a
    // cooldown before a probe could close them anyway.
    ch.next_probe_ms.store(steady_now_ms() + probe_interval_ms(),
                           std::memory_order_relaxed);
  }
}

bool Router::shard_available(std::size_t shard) {
  ShardChannel& ch = *channels_[shard];
  if (!ch.down.load(std::memory_order_relaxed)) return true;
  const std::uint64_t now = steady_now_ms();
  std::uint64_t gate = ch.next_probe_ms.load(std::memory_order_relaxed);
  if (now < gate ||
      !ch.next_probe_ms.compare_exchange_strong(gate,
                                                now + probe_interval_ms(),
                                                std::memory_order_relaxed)) {
    return false;  // probed too recently, or another thread owns this slot
  }
  // This thread won the probe slot. try_lock only: a cache hit must never
  // queue behind a failover sweep some other request is burning on this
  // channel — serving degraded now beats serving fresh eventually.
  std::unique_lock<std::mutex> lock(ch.mu, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  Request req;
  req.opcode = Opcode::kHealth;
  try {
    const Response resp = ch.client.call_idempotent_capped(req, 1, 0.0);
    if (resp.ok() && resp.text.rfind("ready", 0) == 0) {
      std::uint64_t epoch = 0;
      if (std::sscanf(resp.text.c_str(), "%*s epoch=%" SCNu64, &epoch) == 1) {
        ch.known_epoch.store(epoch, std::memory_order_relaxed);
      }
      ch.down.store(false, std::memory_order_relaxed);
      return true;
    }
  } catch (const std::exception&) {
    // Still down; the gate already moved one interval forward.
  }
  return false;
}

bool Router::adopt_meta(const WireLabelMeta& meta, std::string& error) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  if (!meta_known_) {
    if (total_n_ != 0 && meta.total_n != total_n_) {
      error = "shard label reports n=" + std::to_string(meta.total_n) +
              " but the fleet reported n=" + std::to_string(total_n_) +
              " at startup";
      return false;
    }
    meta_ = meta;
    meta_known_ = true;
    return true;
  }
  if (!meta_.compatible(meta)) {
    // Two shards serving labelings with different parameters would decode
    // individually fine and combine into garbage — refuse loudly.
    error = "shard serves an incompatible labeling (scheme parameters, "
            "codec, or vertex count disagree across shards)";
    return false;
  }
  return true;
}

std::shared_ptr<const LevelGraphStore> Router::fetch_label(
    Vertex v, const server::TraceContext& trace, Response& error,
    std::uint64_t& epoch) {
  const std::uint32_t owner = partitioner_.owner(v);
  ShardChannel& ch = *channels_[owner];
  if (trace.present && trace.deadline_us <= 1) {
    // Deadline-aware give-up: the client's budget is already gone, so any
    // answer we fetched would be discarded. Spend nothing.
    metrics_.record_label_fetch(LabelFetchResult::kUnavailable);
    error = error_response("shard " + std::to_string(owner) +
                               " fetch skipped: client deadline exhausted",
                           Status::kTimeout);
    return nullptr;
  }
  Request req;
  req.opcode = Opcode::kGetLabel;
  req.pairs.emplace_back(v, 0);
  req.trace = trace;
  Response resp;
  WallTimer round_trip;
  const auto record_latency = [&] {
    std::lock_guard<std::mutex> lock(fetch_hist_mu_);
    fetch_latency_[owner].add(round_trip.elapsed_us());
  };
  try {
    {
      std::lock_guard<std::mutex> lock(ch.mu);
      // Retry budget: the first attempt is free, each failover attempt
      // beyond it must be covered by a token. An empty bucket means a dead
      // shard costs one attempt per request, not a whole sweep.
      unsigned attempts = 0;
      if (options_.retry_budget_cap > 0) {
        attempts = 1 + static_cast<unsigned>(ch.tokens);
      }
      const std::uint64_t retries_before = ch.client.replica_stats().retries;
      try {
        resp = ch.client.call_idempotent_capped(
            req, attempts,
            trace.present ? static_cast<double>(trace.deadline_us) : 0.0);
        settle_budget(ch, retries_before, /*success=*/true);
      } catch (...) {
        settle_budget(ch, retries_before, /*success=*/false);
        throw;
      }
    }
    record_latency();
    ch.down.store(false, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    record_latency();
    // Every replica of the owning shard failed within the retry budget.
    // TIMEOUT, not ERROR: the query is fine, the shard is not — a client
    // may retry once a replica comes back. Mark the shard down so cache
    // hits it owns switch to stale-label serving until a probe clears it.
    mark_shard_down(owner);
    metrics_.record_label_fetch(LabelFetchResult::kUnavailable);
    error = error_response("shard " + std::to_string(owner) +
                               " unavailable: " + e.what(),
                           Status::kTimeout);
    return nullptr;
  }
  if (!resp.ok()) {
    // Definitive shard-side refusal (unknown vertex, wrong shard under a
    // mismatched ring, ...). Propagate the shard's own message — it names
    // the owner it believes in, which is the actionable part.
    metrics_.record_label_fetch(LabelFetchResult::kError);
    error = error_response("shard " + std::to_string(owner) +
                               " refused label fetch: " + resp.text,
                           resp.status);
    return nullptr;
  }
  try {
    WireLabel wire = decode_wire_label(resp.text, total_n_);
    if (wire.vertex != v) {
      throw std::runtime_error("shard returned the label of vertex " +
                               std::to_string(wire.vertex));
    }
    std::string meta_error;
    if (!adopt_meta(wire.meta, meta_error)) {
      metrics_.record_label_fetch(LabelFetchResult::kError);
      error = error_response(std::move(meta_error));
      return nullptr;
    }
    epoch = wire.meta.epoch;
    ch.known_epoch.store(epoch, std::memory_order_relaxed);
    metrics_.record_label_fetch(LabelFetchResult::kOk);
    return std::make_shared<const LevelGraphStore>(std::move(wire.store));
  } catch (const std::exception& e) {
    metrics_.record_label_fetch(LabelFetchResult::kError);
    error = error_response("label from shard " + std::to_string(owner) +
                           " is malformed: " + e.what());
    return nullptr;
  }
}

bool Router::gather_labels(
    const std::vector<Vertex>& needed, QueryTrace trace,
    const server::TraceContext& upstream,
    std::unordered_map<Vertex, std::shared_ptr<const LevelGraphStore>>& out,
    Response& error, DegradedServe& degraded) {
  obs::TraceRecorder& rec = trace.rec;
  const std::uint64_t root_span = trace.root_span;
  // Cache pass first; group the misses by owning shard. Stale entries
  // (epoch behind the shard's last reported one) are refetched but kept as
  // fallbacks; entries owned by a down shard are served degraded outright.
  std::vector<std::vector<Vertex>> missing(channels_.size());
  std::unordered_map<Vertex,
                     std::pair<std::shared_ptr<const LevelGraphStore>,
                               std::uint64_t>>
      fallback;
  std::size_t miss_shards = 0;
  for (Vertex v : needed) {
    if (out.find(v) != out.end()) continue;
    const std::uint32_t owner = partitioner_.owner(v);
    std::uint64_t entry_epoch = 0;
    auto label = cache_get(v, &entry_epoch);
    if (label != nullptr) {
      metrics_.record_label_cache(true);
      if (!options_.stale_serve) {
        out.emplace(v, std::move(label));
        continue;
      }
      const std::uint64_t known =
          channels_[owner]->known_epoch.load(std::memory_order_relaxed);
      const bool stale = entry_epoch < known;
      if (!shard_available(owner)) {
        // The owner is down: this cached label is the only answer there
        // is. Serve it and let the response say so.
        degraded.note(stale, entry_epoch);
        out.emplace(v, std::move(label));
        continue;
      }
      if (!stale) {
        out.emplace(v, std::move(label));
        continue;
      }
      // Stale but the shard is up: refetch, keeping the old entry as the
      // fallback should the shard die under us.
      fallback.emplace(v, std::make_pair(std::move(label), entry_epoch));
    } else {
      metrics_.record_label_cache(false);
    }
    auto& group = missing[owner];
    if (group.empty()) ++miss_shards;
    group.push_back(v);
    out.emplace(v, nullptr);  // dedupe placeholder, filled below
  }
  if (miss_shards == 0) return true;

  // Scatter: when the misses span several shards, fetch the groups
  // concurrently — each group serializes on its own shard channel, so the
  // round trips overlap instead of queueing behind one another.
  struct Fetched {
    Vertex vertex;
    std::shared_ptr<const LevelGraphStore> label;
    std::uint64_t epoch;
  };
  struct GroupResult {
    std::vector<Fetched> labels;
    Response error;
    bool failed = false;
  };
  std::vector<GroupResult> results(channels_.size());
  auto fetch_group = [this, &missing, &results, &rec, root_span,
                      &upstream](std::size_t shard) {
    GroupResult& r = results[shard];
    // One "router.fetch" span per shard group; its id becomes the parent
    // span the shard's own spans hang under, so the stitched tree shows
    // which scatter leg each shard-side lookup belongs to.
    server::TraceContext ctx = upstream;
    const std::uint64_t span = rec.new_span();
    if (rec.active()) ctx.parent_span = span;
    const std::uint64_t start = rec.active() ? obs::epoch_us() : 0;
    WallTimer group_timer;
    for (Vertex v : missing[shard]) {
      if (ctx.present && upstream.deadline_us > 0) {
        // Forward only the budget this request still has.
        const double used = group_timer.elapsed_us();
        ctx.deadline_us =
            used >= upstream.deadline_us
                ? 1
                : upstream.deadline_us - static_cast<std::uint32_t>(used);
      }
      std::uint64_t label_epoch = 0;
      auto label = fetch_label(v, ctx, r.error, label_epoch);
      if (label == nullptr) {
        r.failed = true;
        break;
      }
      r.labels.push_back(Fetched{v, std::move(label), label_epoch});
    }
    if (rec.active()) {
      rec.add("router.fetch", span, root_span, start,
              group_timer.elapsed_us(), static_cast<int>(shard));
    }
  };
  // Groups from `inline_from` on run on this thread: all of them for a
  // single-shard miss, and the rest of them when a thread cannot be
  // started (std::system_error, e.g. EAGAIN at a thread limit). The
  // threads already started are joined first, so no joinable std::thread
  // is ever destroyed.
  std::size_t inline_from = 0;
  if (miss_shards > 1) {
    std::vector<std::thread> threads;
    threads.reserve(miss_shards);
    try {
      for (; inline_from < missing.size(); ++inline_from) {
        if (missing[inline_from].empty()) continue;
        if (const auto hit = FSDL_FAILPOINT("router.fanout.spawn")) {
          throw std::system_error(hit.err, std::generic_category(),
                                  "router fan-out thread");
        }
        threads.emplace_back(fetch_group, inline_from);
      }
    } catch (const std::system_error&) {
      // Not a request failure: group `inline_from` and the rest run below.
    }
    for (auto& t : threads) t.join();
  }
  for (std::size_t s = inline_from; s < missing.size(); ++s) {
    if (!missing[s].empty()) fetch_group(s);
  }

  // Gather: merge the per-shard results. A failed group whose failure was
  // unavailability (not a refusal) may still be rescued: if every vertex it
  // left unfetched has a stale fallback entry, those are served degraded.
  // Otherwise the first failure wins and the placeholders are scrubbed so a
  // failed gather never leaves null labels behind for a later code path to
  // dereference.
  bool ok = true;
  for (std::size_t s = 0; s < results.size(); ++s) {
    GroupResult& r = results[s];
    for (auto& f : r.labels) {
      cache_put(f.vertex, f.label, f.epoch);
      out[f.vertex] = std::move(f.label);
    }
    if (!r.failed) continue;
    bool rescued =
        options_.stale_serve && r.error.status == Status::kTimeout;
    if (rescued) {
      for (Vertex v : missing[s]) {
        if (out[v] != nullptr) continue;  // fetched before the failure
        if (fallback.find(v) == fallback.end()) {
          rescued = false;
          break;
        }
      }
    }
    if (rescued) {
      for (Vertex v : missing[s]) {
        if (out[v] != nullptr) continue;
        auto& fb = fallback[v];
        degraded.note(true, fb.second);
        out[v] = std::move(fb.first);
      }
    } else if (ok) {
      ok = false;
      error = std::move(r.error);
    }
  }
  if (!ok) {
    for (auto it = out.begin(); it != out.end();) {
      it = it->second == nullptr ? out.erase(it) : std::next(it);
    }
  }
  return ok;
}

std::shared_ptr<const Router::PinnedPrepared> Router::prepared_get(
    const FaultSet& faults,
    const std::unordered_map<Vertex, std::shared_ptr<const LevelGraphStore>>&
        labels) {
  const FaultKey key = server::canonical_key(faults);
  const std::uint64_t hash = server::fault_hash(key);
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    const auto chain = prepared_index_.find(hash);
    if (chain != prepared_index_.end()) {
      for (const auto& it : chain->second) {
        if (it->key == key) {
          ++prepared_hits_;
          prepared_lru_.splice(prepared_lru_.begin(), prepared_lru_, it);
          return it->value;
        }
      }
    }
    ++prepared_misses_;
  }

  // Build outside the lock (same policy as the server's PreparedCache: two
  // racing builders do duplicate work; neither blocks other fault sets).
  SchemeParams params;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    params = meta_.params;
  }
  auto pinned = std::make_shared<PinnedPrepared>();
  std::vector<LabelView> fault_vertices;
  fault_vertices.reserve(faults.vertices().size());
  for (Vertex v : faults.vertices()) {
    const auto& label = labels.at(v);
    pinned->pins.push_back(label);
    fault_vertices.push_back(label->label(v));
  }
  std::vector<std::pair<LabelView, LabelView>> fault_edges;
  fault_edges.reserve(faults.edges().size());
  for (const auto& [a, b] : faults.edges()) {
    const auto& la = labels.at(a);
    const auto& lb = labels.at(b);
    pinned->pins.push_back(la);
    pinned->pins.push_back(lb);
    fault_edges.emplace_back(la->label(a), lb->label(b));
  }
  pinned->prepared = std::make_unique<const PreparedFaults>(
      params, std::move(fault_vertices), std::move(fault_edges));

  std::lock_guard<std::mutex> lock(prepared_mu_);
  const auto chain = prepared_index_.find(hash);
  if (chain != prepared_index_.end()) {
    for (const auto& it : chain->second) {
      if (it->key == key) return it->value;  // the racing builder won
    }
  }
  prepared_lru_.push_front(PreparedEntry{key, pinned});
  prepared_index_[hash].push_back(prepared_lru_.begin());
  while (prepared_lru_.size() > std::max<std::size_t>(
                                    1, options_.prepared_capacity)) {
    const PreparedEntry& victim = prepared_lru_.back();
    const std::uint64_t victim_hash = server::fault_hash(victim.key);
    auto victim_chain = prepared_index_.find(victim_hash);
    if (victim_chain != prepared_index_.end()) {
      auto& vec = victim_chain->second;
      for (auto it = vec.begin(); it != vec.end(); ++it) {
        if ((*it)->key == victim.key) {
          vec.erase(it);
          break;
        }
      }
      if (vec.empty()) prepared_index_.erase(victim_chain);
    }
    prepared_lru_.pop_back();
    ++prepared_evictions_;
  }
  return pinned;
}

server::PreparedCache::Stats Router::prepared_stats() const {
  std::lock_guard<std::mutex> lock(prepared_mu_);
  server::PreparedCache::Stats s;
  s.hits = prepared_hits_;
  s.misses = prepared_misses_;
  s.evictions = prepared_evictions_;
  s.entries = prepared_lru_.size();
  return s;
}

std::string Router::prometheus() const {
  std::string out = metrics_.render_prometheus(prepared_stats());
  std::lock_guard<std::mutex> lock(fetch_hist_mu_);
  bool any = false;
  for (const Histogram& h : fetch_latency_) {
    if (!h.empty()) any = true;
  }
  if (any) {
    out +=
        "# HELP fsdl_router_shard_fetch_latency_microseconds GET_LABEL "
        "round-trip latency per owning shard.\n"
        "# TYPE fsdl_router_shard_fetch_latency_microseconds histogram\n";
    for (std::size_t i = 0; i < fetch_latency_.size(); ++i) {
      if (fetch_latency_[i].empty()) continue;
      server::append_prometheus_histogram(
          out, "fsdl_router_shard_fetch_latency_microseconds",
          "shard=\"" + std::to_string(i) + "\"", fetch_latency_[i]);
    }
  }
  return out;
}

Response Router::fleet_stats() {
  std::vector<server::ShardScrape> scrapes;
  scrapes.reserve(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    server::ShardScrape s;
    s.shard = static_cast<unsigned>(i);
    Request mreq;
    mreq.opcode = Opcode::kMetrics;
    try {
      std::lock_guard<std::mutex> lock(channels_[i]->mu);
      server::ReplicaClient& client = channels_[i]->client;
      const server::Endpoint& ep = client.endpoint(client.primary());
      s.replica = ep.host + ":" + std::to_string(ep.port);
      Response mresp = client.call_idempotent(mreq);
      s.ok = mresp.ok();
      s.text = std::move(mresp.text);
    } catch (const std::exception&) {
      // A dead shard is a 0 in fsdl_fleet_scrape_ok, not a failed request:
      // the surviving shards' numbers are exactly what an operator needs
      // while a shard is down.
      s.ok = false;
    }
    scrapes.push_back(std::move(s));
  }
  Response resp;
  resp.text = prometheus() + server::render_fleet(scrapes);
  return resp;
}

std::string Router::health_text() const {
  const char* state = draining() ? "draining"
                     : watchdog_degraded() ? "degraded"
                                           : "ready";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s n=%u shards=%u plane=%s uptime_s=%" PRIu64
                " conns=%" PRId64,
                state, total_n_, shard_count(), plane_name(), uptime_s(),
                open_connections());
  return buf;
}

Response Router::handle_query(const Request& req) {
  WallTimer timer;
  obs::TraceRecorder rec(req.trace.trace_hi, req.trace.trace_lo,
                         req.trace.parent_span, req.trace.sampled());
  const std::uint64_t root_span = rec.new_span();
  const std::uint64_t root_start = rec.active() ? obs::epoch_us() : 0;
  if (req.pairs.empty()) return error_response("empty batch");
  const Vertex n = total_n_;
  for (const auto& [s, t] : req.pairs) {
    for (Vertex v : {s, t}) {
      if (v >= n) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "vertex id %u out of range (n=%u)", v,
                      n);
        return error_response(buf);
      }
    }
  }
  for (Vertex v : req.faults.vertices()) {
    if (v >= n) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "fault vertex id %u out of range (n=%u)",
                    v, n);
      return error_response(buf);
    }
  }
  for (const auto& [a, b] : req.faults.edges()) {
    for (Vertex v : {a, b}) {
      if (v >= n) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "fault edge id %u out of range (n=%u)",
                      v, n);
        return error_response(buf);
      }
    }
  }

  // The full label shopping list: endpoints, forbidden vertices, and both
  // endpoints of forbidden edges (the decoder filters each fault label's
  // edges, so edge faults need labels too).
  std::vector<Vertex> needed;
  needed.reserve(req.pairs.size() * 2 + req.faults.size() * 2);
  for (const auto& [s, t] : req.pairs) {
    needed.push_back(s);
    needed.push_back(t);
  }
  needed.insert(needed.end(), req.faults.vertices().begin(),
                req.faults.vertices().end());
  for (const auto& [a, b] : req.faults.edges()) {
    needed.push_back(a);
    needed.push_back(b);
  }

  // Trace context forwarded to the shards: the incoming one verbatim (so
  // propagation also works in FSDL_TRACE=OFF builds, where the recorder is
  // inert), upgraded to this hop's trace id when the event log is live.
  server::TraceContext fwd = req.trace;
  if (rec.active()) {
    fwd.present = true;
    fwd.trace_hi = rec.trace_hi();
    fwd.trace_lo = rec.trace_lo();
    if (rec.sampled()) fwd.flags |= server::TraceContext::kSampledFlag;
  }

  std::unordered_map<Vertex, std::shared_ptr<const LevelGraphStore>> labels;
  labels.reserve(needed.size());
  Response gather_error;
  DegradedServe degraded;
  const std::uint64_t assemble_span = rec.new_span();
  const std::uint64_t assemble_start = rec.active() ? obs::epoch_us() : 0;
  WallTimer assemble_timer;
  const bool gathered =
      gather_labels(needed, QueryTrace{rec, root_span}, fwd, labels,
                    gather_error, degraded);
  if (rec.active()) {
    rec.add("router.assemble", assemble_span, root_span, assemble_start,
            assemble_timer.elapsed_us());
  }
  if (!gathered) {
    if (rec.active()) {
      rec.add("router.query", root_span, rec.parent_span(), root_start,
              timer.elapsed_us());
    }
    rec.flush(false);
    return gather_error;
  }

  Response resp;
  resp.distances.reserve(req.pairs.size());
  QueryStats request_stats;
  const std::uint64_t decode_span = rec.new_span();
  const std::uint64_t decode_start = rec.active() ? obs::epoch_us() : 0;
  WallTimer decode_timer;
  if (req.faults.empty()) {
    SchemeParams params;
    {
      std::lock_guard<std::mutex> lock(meta_mu_);
      params = meta_.params;
    }
    const PreparedFaults no_faults(params, {}, {});
    for (const auto& [s, t] : req.pairs) {
      const QueryResult r =
          no_faults.query(labels.at(s)->label(s), labels.at(t)->label(t));
      resp.distances.push_back(r.distance);
      request_stats.accumulate(r.stats);
    }
  } else {
    const auto prepared = prepared_get(req.faults, labels);
    for (const auto& [s, t] : req.pairs) {
      // PreparedFaults handles forbidden endpoints (returns kInfDist).
      const QueryResult r = prepared->prepared->query(labels.at(s)->label(s),
                                                      labels.at(t)->label(t));
      resp.distances.push_back(r.distance);
      request_stats.accumulate(r.stats);
    }
  }
  if (degraded.any()) {
    // The distances above used at least one cached label whose shard could
    // not vouch for it. Same decode, honestly labeled: kDegraded + the
    // oldest snapshot epoch consulted.
    resp.status = Status::kDegraded;
    resp.epoch = degraded.oldest_epoch;
    metrics_.record_degraded(degraded.stale != 0
                                 ? server::DegradedReason::kStaleLabel
                                 : server::DegradedReason::kShardDown);
  }
  if (rec.active()) {
    rec.add("router.decode", decode_span, root_span, decode_start,
            decode_timer.elapsed_us());
    rec.add("router.query", root_span, rec.parent_span(), root_start,
            timer.elapsed_us());
  }
  rec.flush(false);
  metrics_.record(req.opcode == Opcode::kDist ? RequestType::kDist
                                              : RequestType::kBatch,
                  resp.distances.size(), timer.elapsed_us());
  metrics_.record_query_stats(request_stats);
  return resp;
}

Response Router::handle(const Request& req) {
  WallTimer timer;
  Response resp;
  switch (req.opcode) {
    case Opcode::kStats: {
      resp.text = metrics_.render(prepared_stats());
      metrics_.record(RequestType::kStats, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kMetrics: {
      resp.text = prometheus();
      metrics_.record(RequestType::kMetrics, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kFleetStats: {
      resp = fleet_stats();
      metrics_.record(RequestType::kFleetStats, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kHealth: {
      resp.text = health_text();
      metrics_.record(RequestType::kHealth, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kReload: {
      return error_response(
          "RELOAD refused: the router holds no labels of its own (reload "
          "the shard servers; the router's caches follow)");
    }
    case Opcode::kGetLabel: {
      // Proxy to the owning shard: a client behind the router can use the
      // fetch/decode split too (e.g. a second-tier router).
      const Vertex v = req.pairs.at(0).first;
      if (v >= total_n_) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "vertex id %u out of range (n=%u)", v,
                      total_n_);
        return error_response(buf);
      }
      const std::uint32_t owner = partitioner_.owner(v);
      ShardChannel& ch = *channels_[owner];
      try {
        std::lock_guard<std::mutex> lock(ch.mu);
        unsigned attempts = 0;
        if (options_.retry_budget_cap > 0) {
          attempts = 1 + static_cast<unsigned>(ch.tokens);
        }
        const std::uint64_t retries_before =
            ch.client.replica_stats().retries;
        try {
          resp = ch.client.call_idempotent_capped(req, attempts, 0.0);
          settle_budget(ch, retries_before, /*success=*/true);
        } catch (...) {
          settle_budget(ch, retries_before, /*success=*/false);
          throw;
        }
      } catch (const std::exception& e) {
        mark_shard_down(owner);
        return error_response("shard " + std::to_string(owner) +
                                  " unavailable: " + e.what(),
                              Status::kTimeout);
      }
      ch.down.store(false, std::memory_order_relaxed);
      metrics_.record(RequestType::kGetLabel, 0, timer.elapsed_us());
      return resp;
    }
    case Opcode::kDist:
    case Opcode::kBatch:
      return handle_query(req);
  }
  return error_response("unhandled opcode");
}

}  // namespace fsdl::shard
