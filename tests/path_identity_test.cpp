// Cross-path identity: one seeded (s, t, F) stream answered by every path
// that can produce an answer must get bit-identical distances, and
// identical waypoints wherever the path returns them:
//   - ForbiddenSetOracle over the builder's store (the reference here);
//   - the same labels rebuilt from a saved file (in process);
//   - a labeling built under the kDelta codec;
//   - a Server over loopback;
//   - a Server after RELOAD of the saved file;
//   - a Router at K = 1, 2 and 4 over split_labeling pieces (each label
//     arrives over GET_LABEL and is decoded into a single-label store).
// Fault sets mix vertex and edge faults, and some queries put s or t
// inside F. The reference answers are also checked against exact BFS in
// G \ F (sound always, within 1+ε under the faithful preset), so a decoder
// fault every path shares cannot pass as "identical".
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "core/serialize.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "shard/router.hpp"
#include "shard/shard_store.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

struct Query {
  Vertex s;
  Vertex t;
  FaultSet faults;
};

/// `size` faults on g, each an edge with probability 0.4, else a vertex.
FaultSet random_faults(const Graph& g, Rng& rng, unsigned size) {
  FaultSet f;
  while (f.size() < size) {
    const Vertex a = rng.vertex(g.num_vertices());
    if (rng.chance(0.4)) {
      const auto nb = g.neighbors(a);
      const Vertex b = nb[rng.below(nb.size())];
      if (!f.edge_faulty(a, b)) f.add_edge(a, b);
    } else if (!f.vertex_faulty(a)) {
      f.add_vertex(a);
    }
  }
  return f;
}

std::vector<Query> query_stream(const Graph& g, std::uint64_t seed,
                                unsigned count) {
  Rng rng(seed);
  const Vertex n = g.num_vertices();
  std::vector<Query> out;
  for (unsigned q = 0; q < count; ++q) {
    Query query{rng.vertex(n), rng.vertex(n), random_faults(g, rng, q % 9)};
    // Every fourth query puts an endpoint inside F: a forbidden vertex
    // (unreachable by definition) or a forbidden edge's endpoint (a ball
    // center that stays usable).
    if (q % 4 == 3 && !query.faults.vertices().empty()) {
      query.s = query.faults.vertices().front();
    } else if (q % 4 == 1 && !query.faults.edges().empty()) {
      query.t = query.faults.edges().front().second;
    }
    out.push_back(std::move(query));
  }
  return out;
}

server::ServerOptions small_server() {
  server::ServerOptions options;  // port 0: ephemeral
  options.workers = 2;
  return options;
}

/// K shard servers over a K-way split, and a router in front of them.
struct RoutedFleet {
  std::vector<std::unique_ptr<server::Server>> shards;
  std::unique_ptr<shard::Router> router;

  RoutedFleet(const ForbiddenSetLabeling& scheme, std::uint32_t k) {
    shard::RouterOptions options;
    options.transport.workers = 2;
    options.label_cache_capacity = 8;  // small: most labels are fetched
    for (ForbiddenSetLabeling& piece : shard::split_labeling(scheme, k)) {
      shards.push_back(
          std::make_unique<server::Server>(std::move(piece), small_server()));
      shards.back()->start();
      options.shards.push_back(
          {server::Endpoint{"127.0.0.1", shards.back()->port()}});
    }
    router = std::make_unique<shard::Router>(options);
    router->start();
  }
  ~RoutedFleet() {
    router->stop();
    for (auto& s : shards) s->stop();
  }
};

std::string describe(const Query& q) {
  std::ostringstream out;
  out << "s=" << q.s << " t=" << q.t << " |Fv|=" << q.faults.vertices().size()
      << " |Fe|=" << q.faults.edges().size();
  return out.str();
}

void check_every_path(const char* name, const Graph& g,
                      const SchemeParams& params, std::uint64_t seed) {
  SCOPED_TRACE(name);
  const ForbiddenSetLabeling scheme = ForbiddenSetLabeling::build(g, params);
  const ForbiddenSetOracle oracle(scheme);
  const std::vector<Query> stream = query_stream(g, seed, 36);

  // In-process paths that return waypoints.
  const std::string path = ::testing::TempDir() + "path_identity_" +
                           std::to_string(seed) + ".fsdl";
  save_labeling(scheme, path);
  const ForbiddenSetLabeling loaded = load_labeling(path);
  const ForbiddenSetOracle from_file(loaded);
  BuildOptions delta;
  delta.codec = LabelCodec::kDelta;
  const ForbiddenSetLabeling packed =
      ForbiddenSetLabeling::build(g, params, delta);
  const ForbiddenSetOracle delta_oracle(packed);

  std::vector<QueryResult> want;
  std::size_t reachable = 0;
  for (const Query& q : stream) {
    want.push_back(oracle.query(q.s, q.t, q.faults));
    const Dist exact = distance_avoiding(g, q.s, q.t, q.faults);
    const Dist got = want.back().distance;
    if (exact == kInfDist) {
      EXPECT_EQ(got, kInfDist) << describe(q);
    } else {
      ++reachable;
      EXPECT_GE(got, exact) << "unsound: " << describe(q);
      if (params.faithful_radii) {
        EXPECT_LE(got, (1.0 + params.epsilon) * exact) << describe(q);
      }
    }
    for (const auto* other : {&from_file, &delta_oracle}) {
      const char* what = other == &from_file ? "file" : "kDelta";
      const QueryResult r = other->query(q.s, q.t, q.faults);
      EXPECT_EQ(r.distance, got) << what << " " << describe(q);
      EXPECT_EQ(r.waypoints, want.back().waypoints)
          << what << " " << describe(q);
    }
  }
  EXPECT_GT(reachable, stream.size() / 2);

  // Networked paths: distances only.
  const auto expect_distances = [&](const char* what, std::uint16_t port) {
    server::Client client;
    client.connect("127.0.0.1", port);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Query& q = stream[i];
      EXPECT_EQ(client.dist(q.s, q.t, q.faults), want[i].distance)
          << what << " " << describe(q);
    }
  };

  {
    server::Server srv(oracle, small_server());
    srv.start();
    expect_distances("server", srv.port());
    srv.stop();
  }
  {
    // Starts on the kDelta labels, then RELOADs the saved classic file.
    server::ServerOptions options = small_server();
    options.label_path = path;
    options.admin = true;
    server::Server srv(ForbiddenSetLabeling(packed), options);
    srv.start();
    server::Client admin;
    admin.connect("127.0.0.1", srv.port());
    (void)admin.admin_reload();
    EXPECT_EQ(srv.label_epoch(), 2u);
    expect_distances("server after RELOAD", srv.port());
    srv.stop();
  }
  for (std::uint32_t k : {1u, 2u, 4u}) {
    const RoutedFleet fleet(scheme, k);
    const std::string what = "router K=" + std::to_string(k);
    expect_distances(what.c_str(), fleet.router->port());
  }
  std::remove(path.c_str());
}

// Both shapes are long and thin: their diameter (~100) is well above the
// lowest level's ball radius (48 faithful ε = 2, under 20 compact), so
// protected balls hold part of the graph and certification decides.
TEST(PathIdentity, OneStreamAnswersIdenticallyOnEveryPath) {
  check_every_path("grid3x100 faithful eps=2", make_grid2d(3, 100),
                   SchemeParams::faithful(2.0), 31);
  check_every_path("king3x100 compact", make_king_grid(3, 100),
                   SchemeParams::compact(1.0), 32);
}

}  // namespace
}  // namespace fsdl
