#include "fleet.hpp"

#include <stdexcept>
#include <string>

#include "check.hpp"
#include "shard/shard_store.hpp"
#include "util/timer.hpp"

namespace fsdl::perfbench {

Fleet::Fleet(const WorkloadSpec& spec, const Graph& g,
             const std::vector<FaultSet>& warm_sets, Rng& rng, SpanLog& spans,
             SetupTimes& times) {
  const WallTimer total;
  WallTimer step;
  scheme_ = std::make_unique<ForbiddenSetLabeling>(
      ForbiddenSetLabeling::build(g, spec.params()));
  times.build_s = step.elapsed_seconds();

  oracle_ = std::make_unique<ForbiddenSetOracle>(*scheme_);
  const auto warm_oracle = [&] {
    step.reset();
    oracle_->warm();
    times.warm_s = step.elapsed_seconds();
  };
  // A routed fleet serves from the shard servers' pieces, and the oracle
  // only backs the bench-side replay: its warm-up is timed apart, after the
  // set-up.
  const bool routed = spec.shards > 0;
  if (!routed) warm_oracle();

  server::ServerOptions options;
  options.workers = spec.server_workers;
  if (!routed) {
    servers_.push_back(std::make_unique<Traced<server::Server>>(
        spans, "server.handle", *oracle_, options));
    servers_.back()->start();
  } else {
    shard::RouterOptions router;
    router.transport.workers = spec.router_workers;
    // One LRU of exactly label_cache entries: split over the default eight
    // cache shards, which labels survive would hinge on where the seed's
    // fault vertices hash, not on the capacity.
    router.label_cache_capacity = spec.label_cache;
    router.label_cache_shards = 1;
    for (ForbiddenSetLabeling& piece :
         shard::split_labeling(*scheme_, spec.shards)) {
      servers_.push_back(std::make_unique<Traced<server::Server>>(
          spans, "server.handle", std::move(piece), options));
      servers_.back()->start();
      router.shards.push_back(
          {server::Endpoint{"127.0.0.1", servers_.back()->port()}});
    }
    router_ = std::make_unique<Traced<shard::Router>>(
        spans, "shard.router_handle", router);
    router_->start();
  }

  const Vertex n = g.num_vertices();
  clients_.resize(spec.connections);
  for (server::Client& client : clients_) {
    client.connect("127.0.0.1", port());
    const std::vector<FaultSet> fault_free(1);
    for (const FaultSet& faults : warm_sets.empty() ? fault_free : warm_sets) {
      const Vertex s = rng.vertex(n);
      const Vertex t = rng.vertex(n);
      const Dist got = client.dist(s, t, faults);
      const Dist exact = distance_avoiding(g, s, t, faults);
      if (!within_bound(spec.epsilon, exact, got)) {
        throw std::runtime_error(
            "warm-up answer out of bounds: s=" + std::to_string(s) +
            " t=" + std::to_string(t) + " served=" + std::to_string(got) +
            " exact=" + std::to_string(exact));
      }
    }
  }
  times.total_s = total.elapsed_seconds();
  if (routed) warm_oracle();
}

std::uint16_t Fleet::port() const {
  return router_ ? router_->port() : servers_.front()->port();
}

FleetCounters Fleet::counters() const {
  FleetCounters c;
  const server::Metrics& m =
      router_ ? router_->metrics() : servers_.front()->metrics();
  const server::PreparedCache::Stats cache =
      router_ ? router_->prepared_stats() : servers_.front()->cache_stats();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.batch_groups = m.batch_groups();
  c.batched_requests = m.batched_requests();
  c.label_hits = m.label_cache(true);
  c.label_misses = m.label_cache(false);
  return c;
}

}  // namespace fsdl::perfbench
