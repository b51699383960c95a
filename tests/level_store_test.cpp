// LevelGraphStore: the in-memory label form every answering path reads.
// Its views must list exactly the edges each label's bits decode to, in the
// same order; every way a store is made (builder, rebuild from a file,
// shard split, single-label decode, weighted builder) must agree; and a
// CRC-valid file whose labels are not induced subgraphs of one H_i per
// level must be rejected before it can serve.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/label.hpp"
#include "core/labeling.hpp"
#include "core/level_store.hpp"
#include "core/oracle.hpp"
#include "core/serialize.hpp"
#include "core/weighted.hpp"
#include "graph/generators.hpp"
#include "graph/wgraph.hpp"
#include "shard/partition.hpp"
#include "shard/shard_store.hpp"
#include "splice_label.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

::testing::AssertionResult same_label(const VertexLabel& got,
                                      const VertexLabel& want) {
  const auto fail = [](const char* what) {
    return ::testing::AssertionFailure() << what << " differs";
  };
  if (got.owner != want.owner) return fail("owner");
  if (got.owner_net_level != want.owner_net_level) {
    return fail("owner_net_level");
  }
  if (got.min_level != want.min_level || got.top_level != want.top_level) {
    return fail("level range");
  }
  if (got.levels.size() != want.levels.size()) return fail("level count");
  for (std::size_t i = 0; i < got.levels.size(); ++i) {
    const LevelLabel& g = got.levels[i];
    const LevelLabel& w = want.levels[i];
    if (g.points != w.points) return fail("points");
    if (g.dists != w.dists) return fail("dists");
    if (g.edges.size() != w.edges.size()) return fail("edge count");
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      if (g.edges[e].a != w.edges[e].a || g.edges[e].b != w.edges[e].b ||
          g.edges[e].w != w.edges[e].w ||
          g.edges[e].graph_edge != w.edges[e].graph_edge) {
        return fail("edge");
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every label of `scheme` read through `store` equals its decoded bits.
void expect_store_matches_bits(const ForbiddenSetLabeling& scheme,
                               const LevelGraphStore& store) {
  for (Vertex v = 0; v < scheme.num_vertices(); ++v) {
    if (!scheme.stores_label(v)) {
      EXPECT_FALSE(store.has_label(v)) << "v=" << v;
      continue;
    }
    ASSERT_TRUE(store.has_label(v)) << "v=" << v;
    ASSERT_TRUE(same_label(store.label(v).materialize(), scheme.label(v)))
        << "v=" << v;
  }
}

ForbiddenSetLabeling reload(const ForbiddenSetLabeling& scheme) {
  std::stringstream file;
  save_labeling(scheme, file);
  return load_labeling(file);
}

struct Shape {
  const char* name;
  Graph graph;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  out.push_back({"grid3x40", make_grid2d(3, 40)});
  out.push_back({"king3x24", make_king_grid(3, 24)});
  out.push_back({"caterpillar30x2", make_caterpillar(30, 2)});
  return out;
}

// Builder store == store rebuilt from the bits (in memory and through a
// file), and both list every label exactly as its bits decode, for every
// shape × preset × codec.
TEST(LevelGraphStore, BuilderStoreEqualsStoreRebuiltFromLabels) {
  for (const Shape& shape : shapes()) {
    for (bool faithful : {true, false}) {
      for (LabelCodec codec : {LabelCodec::kClassic, LabelCodec::kDelta}) {
        SCOPED_TRACE(std::string(shape.name) +
                     (faithful ? " faithful" : " compact") +
                     (codec == LabelCodec::kClassic ? " classic" : " delta"));
        BuildOptions options;
        options.codec = codec;
        const ForbiddenSetLabeling scheme = ForbiddenSetLabeling::build(
            shape.graph,
            faithful ? SchemeParams::faithful(1.0) : SchemeParams::compact(1.0),
            options);
        ASSERT_NE(scheme.store(), nullptr);
        expect_store_matches_bits(scheme, *scheme.store());
        EXPECT_TRUE(LevelGraphStore::from_labeling(scheme) == *scheme.store());
        const ForbiddenSetLabeling loaded = reload(scheme);
        EXPECT_EQ(loaded.store(), nullptr);
        const ForbiddenSetOracle oracle(loaded);
        EXPECT_TRUE(oracle.store() == *scheme.store());
      }
    }
  }
}

// Both codecs encode the same edge order, so their labels decode equal.
TEST(LevelGraphStore, CodecsDecodeToTheSameCanonicalOrder) {
  for (const Shape& shape : shapes()) {
    for (bool faithful : {true, false}) {
      const SchemeParams params =
          faithful ? SchemeParams::faithful(1.0) : SchemeParams::compact(1.0);
      BuildOptions delta;
      delta.codec = LabelCodec::kDelta;
      const auto classic = ForbiddenSetLabeling::build(shape.graph, params);
      const auto packed =
          ForbiddenSetLabeling::build(shape.graph, params, delta);
      EXPECT_TRUE(*classic.store() == *packed.store()) << shape.name;
      for (Vertex v = 0; v < classic.num_vertices(); ++v) {
        ASSERT_TRUE(same_label(classic.label(v), packed.label(v)))
            << shape.name << " v=" << v;
      }
    }
  }
}

/// v's label decoded from its bits into a single-label store.
LevelGraphStore single_label(const ForbiddenSetLabeling& scheme, Vertex v) {
  const BitWriter& bits = shard::ShardStore::raw_label(scheme, v);
  BitReader in(bits);
  return LevelGraphStore::decode(in, scheme.vertex_bits(), scheme.codec(),
                                 scheme.num_vertices(), scheme.min_level(),
                                 scheme.top_level());
}

// A shard piece keeps every H_i and exactly its own labels; a single-label
// store lists its label unchanged, in O(label) memory.
TEST(LevelGraphStore, SplitPiecesAndSingleLabelStoresListTheSameEdges) {
  const ForbiddenSetLabeling scheme = ForbiddenSetLabeling::build(
      make_grid2d(6, 12), SchemeParams::compact(1.0));
  const auto pieces = shard::split_labeling(scheme, 3);
  for (const ForbiddenSetLabeling& piece : pieces) {
    ASSERT_NE(piece.store(), nullptr);
    expect_store_matches_bits(piece, *piece.store());
    // A piece rebuilt from its file lists the same labels, from the union
    // of its own labels' pair edges only.
    const ForbiddenSetOracle loaded(reload(piece));
    expect_store_matches_bits(piece, loaded.store());
  }
  for (Vertex v = 0; v < scheme.num_vertices(); v += 7) {
    const VertexLabel label = scheme.label(v);
    const LevelGraphStore one = single_label(scheme, v);
    EXPECT_EQ(one.num_labels(), 1u);
    EXPECT_TRUE(one.has_label(v));
    EXPECT_FALSE(one.has_label(v + 1));
    ASSERT_TRUE(same_label(one.label(v).materialize(), label)) << "v=" << v;
    std::size_t label_bytes = 0;
    for (const LevelLabel& ll : label.levels) {
      label_bytes += ll.points.size() * (sizeof(Vertex) + sizeof(Dist)) +
                     ll.edges.size() * sizeof(SketchEdge);
    }
    EXPECT_LT(one.bytes(), 2 * label_bytes + 1024) << "v=" << v;
  }
}

// A single-label store's size follows its bits, not the vertex count it is
// told: a claimed n of 2^32 - 1 allocates nothing per vertex, and a label
// whose header claims another level range is refused before any level is
// read (a short label can claim millions of empty levels).
TEST(LevelGraphStore, SingleLabelDecodeIsSizedByTheLabel) {
  const ForbiddenSetLabeling scheme = ForbiddenSetLabeling::build(
      make_grid2d(6, 12), SchemeParams::faithful(1.0));
  const Vertex v = 29;
  const BitWriter& bits = shard::ShardStore::raw_label(scheme, v);
  {
    BitReader in(bits);
    const LevelGraphStore one = LevelGraphStore::decode(
        in, scheme.vertex_bits(), scheme.codec(), ~Vertex{0},
        scheme.min_level(), scheme.top_level());
    EXPECT_LT(one.bytes(), 64u * 1024);
    EXPECT_TRUE(same_label(one.label(v).materialize(), scheme.label(v)));
  }
  // Header of v's label, then 2^20 - 1 extra levels of no points and no
  // edges: two bits a level.
  BitWriter many;
  const std::uint32_t extra = (1u << 20) - 1;
  encode_label_header(v, 0, scheme.min_level(), scheme.min_level() + extra,
                      scheme.vertex_bits(), many);
  for (std::uint32_t l = 0; l <= extra; ++l) {
    many.write_gamma0(0);
    many.write_gamma0(0);
  }
  BitReader in(many);
  EXPECT_THROW(LevelGraphStore::decode(in, scheme.vertex_bits(),
                                       scheme.codec(), scheme.num_vertices(),
                                       scheme.min_level(), scheme.top_level()),
               std::runtime_error);

  // Net points out of order are refused (stores list them increasing).
  VertexLabel swapped = scheme.label(v);
  LevelLabel& top = swapped.levels.back();
  ASSERT_GT(top.points.size(), 2u);
  std::swap(top.points[1], top.points[2]);
  const BitWriter swapped_bits = splice::encode_like(scheme, swapped);
  BitReader swapped_in(swapped_bits);
  EXPECT_THROW(LevelGraphStore::decode(swapped_in, scheme.vertex_bits(),
                                       scheme.codec(), scheme.num_vertices(),
                                       scheme.min_level(), scheme.top_level()),
               std::runtime_error);
}

// Labels encoded in another edge order (files written before the order was
// canonical) decode into a single-label store that lists them canonically:
// edges in any order, and edges grouped by row but unsorted within rows.
TEST(LevelGraphStore, SingleLabelDecodeListsAnyEdgeOrderCanonically) {
  const ForbiddenSetLabeling scheme = ForbiddenSetLabeling::build(
      make_grid2d(6, 12), SchemeParams::compact(1.0));
  Rng rng(43);
  for (bool grouped : {false, true}) {
    for (Vertex v = 0; v < scheme.num_vertices(); v += 5) {
      const VertexLabel want = scheme.label(v);
      VertexLabel shuffled = want;
      for (LevelLabel& ll : shuffled.levels) {
        for (std::size_t e = ll.edges.size(); e > 1; --e) {
          std::swap(ll.edges[e - 1], ll.edges[rng.below(e)]);
        }
        if (grouped) {
          std::stable_sort(
              ll.edges.begin(), ll.edges.end(),
              [](const SketchEdge& x, const SketchEdge& y) { return x.a < y.a; });
        }
      }
      const BitWriter bits = splice::encode_like(scheme, shuffled);
      BitReader in(bits);
      const LevelGraphStore one = LevelGraphStore::decode(
          in, scheme.vertex_bits(), scheme.codec(), scheme.num_vertices(),
          scheme.min_level(), scheme.top_level());
      ASSERT_TRUE(same_label(one.label(v).materialize(), want))
          << (grouped ? "grouped" : "shuffled") << " v=" << v;
    }
  }
}

TEST(LevelGraphStore, WeightedBuilderWritesTheStoreOfItsBits) {
  Rng rng(41);
  WeightedGraphBuilder b(48);
  for (Vertex v = 0; v + 1 < 48; ++v) {
    b.add_edge(v, v + 1, 1 + static_cast<Weight>(rng.below(4)));
    if (v + 6 < 48) b.add_edge(v, v + 6, 1 + static_cast<Weight>(rng.below(6)));
  }
  const WeightedGraph g = b.build();
  for (bool faithful : {true, false}) {
    const ForbiddenSetLabeling scheme = build_weighted_labeling(
        g, faithful ? SchemeParams::faithful(1.0) : SchemeParams::compact(1.0));
    ASSERT_NE(scheme.store(), nullptr);
    expect_store_matches_bits(scheme, *scheme.store());
    EXPECT_TRUE(LevelGraphStore::from_labeling(scheme) == *scheme.store());
  }
}

// The decoded-table redundancy the store removes: every pair edge of
// H_i is held once, not once per label that holds both endpoints.
TEST(LevelGraphStore, SmallerThanTheDecodedTable) {
  const ForbiddenSetLabeling scheme = ForbiddenSetLabeling::build(
      make_grid2d(10, 10), SchemeParams::faithful(1.0));
  std::size_t decoded = 0;
  for (Vertex v = 0; v < scheme.num_vertices(); ++v) {
    for (const LevelLabel& ll : scheme.label(v).levels) {
      decoded += ll.edges.size() * sizeof(SketchEdge);
    }
  }
  EXPECT_LT(scheme.store()->bytes() * 10, decoded);
}

/// `scheme` loaded from a file in which v's label was changed by `edit`.
template <typename Edit>
ForbiddenSetLabeling with_edited_label(const ForbiddenSetLabeling& scheme,
                                       Vertex v, Edit&& edit) {
  VertexLabel label = scheme.label(v);
  edit(label);
  return splice::with_label_bits(scheme, v,
                                 splice::encode_like(scheme, label));
}

/// Index of the first pair edge (both endpoints net points) of `ll`.
std::size_t first_pair_edge(const LevelLabel& ll) {
  for (std::size_t e = 0; e < ll.edges.size(); ++e) {
    if (ll.edges[e].a != 0) return e;
  }
  return ll.edges.size();
}

// A CRC-valid file whose label is not an induced subgraph of one H_i per
// level loads (the bits decode fine) but cannot become a store, so no
// oracle, server or reload serves it.
TEST(LevelGraphStore, RejectsNonInducedLabelsFromACrcValidFile) {
  const ForbiddenSetLabeling scheme = ForbiddenSetLabeling::build(
      make_grid2d(3, 40), SchemeParams::faithful(1.0));
  const Vertex v = 57;
  const auto expect_rejected = [](const ForbiddenSetLabeling& bad,
                                  const char* why) {
    try {
      const ForbiddenSetOracle oracle(bad);
      ADD_FAILURE() << "store rebuild accepted a label that " << why;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("labeling rejected"),
                std::string::npos)
          << e.what();
    }
  };

  // One pair edge dropped: fewer edges than H_i holds among its points.
  const auto dropped = with_edited_label(scheme, v, [](VertexLabel& l) {
    for (LevelLabel& ll : l.levels) {
      const std::size_t e = first_pair_edge(ll);
      if (e < ll.edges.size()) {
        ll.edges.erase(ll.edges.begin() + static_cast<std::ptrdiff_t>(e));
        return;
      }
    }
  });
  EXPECT_TRUE(same_label(dropped.label(v + 1), scheme.label(v + 1)));
  expect_rejected(dropped, "drops a pair edge");
  try {
    (void)LevelGraphStore::from_labeling(dropped);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not an induced subgraph"),
              std::string::npos)
        << e.what();
  }

  // One pair edge listed twice (the count would still match otherwise).
  expect_rejected(with_edited_label(scheme, v,
                                    [](VertexLabel& l) {
                                      for (LevelLabel& ll : l.levels) {
                                        const std::size_t e =
                                            first_pair_edge(ll);
                                        if (e < ll.edges.size()) {
                                          ll.edges[e + 1 < ll.edges.size()
                                                       ? e + 1
                                                       : e] = ll.edges[e];
                                          return;
                                        }
                                      }
                                    }),
                  "lists a pair edge twice");

  // A pair edge whose weight disagrees with the other labels' copy.
  expect_rejected(with_edited_label(scheme, v,
                                    [](VertexLabel& l) {
                                      for (LevelLabel& ll : l.levels) {
                                        const std::size_t e =
                                            first_pair_edge(ll);
                                        if (e < ll.edges.size()) {
                                          ll.edges[e].w += 1;
                                          return;
                                        }
                                      }
                                    }),
                  "changes a pair edge weight");
}

}  // namespace
}  // namespace fsdl
