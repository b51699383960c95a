#include <gtest/gtest.h>

#include "core/connectivity.hpp"
#include "core/dynamic_oracle.hpp"
#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = make_grid2d(10, 10);
    scheme_ = std::make_unique<ForbiddenSetLabeling>(
        ForbiddenSetLabeling::build(g_, SchemeParams::faithful(1.0)));
    oracle_ = std::make_unique<ForbiddenSetOracle>(*scheme_);
  }
  Graph g_;
  std::unique_ptr<ForbiddenSetLabeling> scheme_;
  std::unique_ptr<ForbiddenSetOracle> oracle_;
};

TEST_F(OracleTest, LabelAccessorMatchesScheme) {
  for (Vertex v : {0u, 37u, 99u}) {
    const LabelView view = oracle_->label(v);
    EXPECT_EQ(view.owner(), v);
    // The store view lists exactly what the label's bits decode to.
    const VertexLabel stored = view.materialize();
    const VertexLabel decoded = scheme_->label(v);
    ASSERT_EQ(stored.levels.size(), decoded.levels.size());
    for (std::size_t i = 0; i < stored.levels.size(); ++i) {
      EXPECT_EQ(stored.levels[i].points, decoded.levels[i].points);
      EXPECT_EQ(stored.levels[i].dists, decoded.levels[i].dists);
      ASSERT_EQ(stored.levels[i].edges.size(), decoded.levels[i].edges.size());
    }
  }
}

TEST_F(OracleTest, SizeBitsEqualsSchemeTotal) {
  EXPECT_EQ(oracle_->size_bits(), scheme_->total_bits());
  EXPECT_GT(oracle_->size_bits(), 0u);
}

TEST_F(OracleTest, DistanceMatchesQueryDistance) {
  FaultSet f;
  f.add_vertex(44);
  EXPECT_EQ(oracle_->distance(0, 99, f), oracle_->query(0, 99, f).distance);
}

TEST_F(OracleTest, ConnectivityAdapter) {
  const ConnectivityOracle conn(*oracle_);
  FaultSet none;
  EXPECT_TRUE(conn.connected(0, 99, none));
  // Sever the grid along column 4.
  FaultSet wall;
  for (Vertex r = 0; r < 10; ++r) wall.add_vertex(r * 10 + 4);
  EXPECT_FALSE(conn.connected(0, 9, wall));
  EXPECT_TRUE(conn.connected(0, 3, wall));
}

TEST_F(OracleTest, DynamicFailAndRestore) {
  DynamicOracle dyn(*oracle_);
  const Dist base = dyn.distance(0, 9);
  EXPECT_EQ(base, 9u);

  // Build a wall incrementally; the answer degrades, then recovers.
  for (Vertex r = 0; r < 10; ++r) dyn.fail_vertex(r * 10 + 4);
  EXPECT_EQ(dyn.distance(0, 9), kInfDist);
  dyn.restore_vertex(9 * 10 + 4);  // open a gap at the bottom
  const Dist detour = dyn.distance(0, 9);
  EXPECT_NE(detour, kInfDist);
  EXPECT_GT(detour, base);
  for (Vertex r = 0; r < 9; ++r) dyn.restore_vertex(r * 10 + 4);
  EXPECT_EQ(dyn.distance(0, 9), base);
}

TEST_F(OracleTest, DynamicEdgeFaults) {
  DynamicOracle dyn(*oracle_);
  dyn.fail_edge(0, 1);
  dyn.fail_edge(0, 10);
  EXPECT_EQ(dyn.distance(0, 99), kInfDist);  // 0 fully cut off
  dyn.restore_edge(0, 1);
  EXPECT_NE(dyn.distance(0, 99), kInfDist);
  EXPECT_EQ(dyn.current_faults().size(), 1u);
}

TEST_F(OracleTest, DynamicMatchesStaticQueries) {
  Rng rng(12);
  DynamicOracle dyn(*oracle_);
  FaultSet mirror;
  for (int step = 0; step < 30; ++step) {
    const Vertex x = rng.vertex(g_.num_vertices());
    if (rng.chance(0.7)) {
      dyn.fail_vertex(x);
      mirror.add_vertex(x);
    } else if (!mirror.vertices().empty()) {
      const Vertex y = mirror.vertices()[rng.below(mirror.vertices().size())];
      dyn.restore_vertex(y);
      mirror.remove_vertex(y);
    }
    const Vertex s = rng.vertex(g_.num_vertices());
    const Vertex t = rng.vertex(g_.num_vertices());
    EXPECT_EQ(dyn.distance(s, t), oracle_->distance(s, t, mirror));
  }
}

}  // namespace
}  // namespace fsdl
