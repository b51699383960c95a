#include <gtest/gtest.h>

#include <algorithm>

#include "core/labeling.hpp"
#include "core/level_store.hpp"
#include "core/oracle.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

class PreparedFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = make_grid2d(11, 11);
    scheme_ = std::make_unique<ForbiddenSetLabeling>(
        ForbiddenSetLabeling::build(g_, SchemeParams::faithful(1.0)));
    oracle_ = std::make_unique<ForbiddenSetOracle>(*scheme_);
  }
  Graph g_;
  std::unique_ptr<ForbiddenSetLabeling> scheme_;
  std::unique_ptr<ForbiddenSetOracle> oracle_;
};

TEST_F(PreparedFaultsTest, MatchesOneShotQueriesExactly) {
  Rng rng(91);
  for (int round = 0; round < 10; ++round) {
    FaultSet f;
    for (unsigned k = 0; k < 1 + rng.below(5); ++k) {
      if (rng.chance(0.3)) {
        const Vertex a = rng.vertex(g_.num_vertices());
        const auto nb = g_.neighbors(a);
        if (!nb.empty()) f.add_edge(a, nb[rng.below(nb.size())]);
      } else {
        f.add_vertex(rng.vertex(g_.num_vertices()));
      }
    }
    const PreparedFaults prepared = oracle_->prepare(f);
    for (int q = 0; q < 25; ++q) {
      const Vertex s = rng.vertex(g_.num_vertices());
      const Vertex t = rng.vertex(g_.num_vertices());
      const QueryResult one_shot = oracle_->query(s, t, f);
      const QueryResult amortized =
          prepared.query(oracle_->label(s), oracle_->label(t));
      ASSERT_EQ(amortized.distance, one_shot.distance)
          << "s=" << s << " t=" << t << " |F|=" << f.size();
      ASSERT_EQ(amortized.waypoints, one_shot.waypoints);
    }
  }
}

TEST_F(PreparedFaultsTest, EmptyFaultSet) {
  const FaultSet none;
  const PreparedFaults prepared = oracle_->prepare(none);
  EXPECT_EQ(prepared.num_centers(), 0u);
  EXPECT_EQ(prepared.query(oracle_->label(0), oracle_->label(120)).distance,
            oracle_->distance(0, 120, none));
}

TEST_F(PreparedFaultsTest, ForbiddenEndpointsStillDetected) {
  FaultSet f;
  f.add_vertex(60);
  const PreparedFaults prepared = oracle_->prepare(f);
  EXPECT_EQ(prepared.query(oracle_->label(60), oracle_->label(0)).distance,
            kInfDist);
  EXPECT_EQ(prepared.query(oracle_->label(0), oracle_->label(60)).distance,
            kInfDist);
}

TEST_F(PreparedFaultsTest, QueryEndpointEqualsFaultEdgeEndpoint) {
  // s is itself a protected-ball center (endpoint of a forbidden edge):
  // the prepared path must not double-count its label.
  FaultSet f;
  f.add_edge(0, 1);
  const PreparedFaults prepared = oracle_->prepare(f);
  const QueryResult a = prepared.query(oracle_->label(0), oracle_->label(120));
  const QueryResult b = oracle_->query(0, 120, f);
  EXPECT_EQ(a.distance, b.distance);
  const Dist exact = distance_avoiding(g_, 0, 120, f);
  EXPECT_GE(a.distance, exact);
  EXPECT_LE(static_cast<double>(a.distance), 2.0 * exact);
}

TEST_F(PreparedFaultsTest, SameVertexQuery) {
  FaultSet f;
  f.add_vertex(5);
  const PreparedFaults prepared = oracle_->prepare(f);
  const QueryResult qr = prepared.query(oracle_->label(9), oracle_->label(9));
  EXPECT_EQ(qr.distance, 0u);
}

TEST_F(PreparedFaultsTest, PreparedReducesPerQueryWork) {
  FaultSet f;
  Rng rng(92);
  for (int k = 0; k < 8; ++k) f.add_vertex(rng.vertex(g_.num_vertices()));
  const PreparedFaults prepared = oracle_->prepare(f);
  const QueryResult amortized =
      prepared.query(oracle_->label(0), oracle_->label(120));
  const QueryResult one_shot = oracle_->query(0, 120, f);
  // The one-shot path re-filters every fault label per query; the prepared
  // path only filters the two endpoint labels (stats carry the shared
  // preparation work, so the counters coincide on the first query).
  EXPECT_EQ(amortized.distance, one_shot.distance);
  EXPECT_LE(amortized.stats.edges_considered, one_shot.stats.edges_considered);
}

// Fault labels read from two different stores (the oracle's and a second
// one rebuilt from the same labeling) do not share one H_i, so the prepare
// filters each label on its own. It must prepare the same edge list and
// answer exactly like the union walk over the oracle's store.
TEST_F(PreparedFaultsTest, CentersFromTwoStoresTakeThePerLabelPath) {
  const LevelGraphStore other = LevelGraphStore::from_labeling(*scheme_);
  Rng rng(93);
  for (int round = 0; round < 6; ++round) {
    FaultSet f;
    std::vector<LabelView> vertices;
    std::vector<std::pair<LabelView, LabelView>> edges;
    while (f.size() < 6) {
      const Vertex a = rng.vertex(g_.num_vertices());
      // Alternate the store each fault's labels come from.
      const auto view = [&](Vertex v) {
        return f.size() % 2 == 0 ? oracle_->label(v) : other.label(v);
      };
      if (rng.chance(0.3)) {
        const auto nb = g_.neighbors(a);
        const Vertex b = nb[rng.below(nb.size())];
        if (f.edge_faulty(a, b)) continue;
        edges.emplace_back(view(a), view(b));
        f.add_edge(a, b);
      } else if (!f.vertex_faulty(a)) {
        vertices.push_back(view(a));
        f.add_vertex(a);
      }
    }
    const PreparedFaults mixed(scheme_->params(), std::move(vertices),
                               std::move(edges));
    const PreparedFaults walked = oracle_->prepare(f);
    ASSERT_EQ(mixed.center_edges(), walked.center_edges()) << "round " << round;

    // The per-label path considers every level edge of every center label.
    std::size_t label_edges = 0;
    std::vector<Vertex> centers = f.vertices();
    for (const auto& [a, b] : f.edges()) {
      centers.push_back(a);
      centers.push_back(b);
    }
    std::sort(centers.begin(), centers.end());
    centers.erase(std::unique(centers.begin(), centers.end()), centers.end());
    for (Vertex c : centers) {
      const LabelView l = oracle_->label(c);
      for (unsigned i = l.min_level(); i <= l.top_level(); ++i) {
        l.level(i).for_each_edge(
            [&](std::uint32_t, std::uint32_t, Dist, bool) { ++label_edges; });
      }
    }
    EXPECT_EQ(mixed.prepare_stats().edges_considered, label_edges);

    for (int q = 0; q < 20; ++q) {
      const Vertex s = rng.vertex(g_.num_vertices());
      const Vertex t = rng.vertex(g_.num_vertices());
      const QueryResult a = mixed.query(other.label(s), oracle_->label(t));
      const QueryResult b = walked.query(oracle_->label(s), oracle_->label(t));
      ASSERT_EQ(a.distance, b.distance) << "s=" << s << " t=" << t;
      ASSERT_EQ(a.waypoints, b.waypoints) << "s=" << s << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace fsdl
