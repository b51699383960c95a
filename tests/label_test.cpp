#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/label.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

VertexLabel random_label(Rng& rng, Vertex n, unsigned min_level,
                         unsigned top_level) {
  VertexLabel l;
  l.owner = rng.vertex(n);
  l.owner_net_level = static_cast<unsigned>(rng.below(6));
  l.min_level = min_level;
  l.top_level = top_level;
  l.levels.resize(top_level - min_level + 1);
  for (auto& ll : l.levels) {
    ll.points.push_back(l.owner);
    ll.dists.push_back(0);
    const std::size_t points = rng.below(20);
    for (std::size_t k = 0; k < points; ++k) {
      Vertex p = rng.vertex(n);
      if (p == l.owner) continue;
      ll.points.push_back(p);
      ll.dists.push_back(1 + static_cast<Dist>(rng.below(100)));
    }
    const std::size_t edges = rng.below(30);
    for (std::size_t e = 0; e < edges && ll.points.size() >= 2; ++e) {
      auto a = static_cast<std::uint32_t>(rng.below(ll.points.size()));
      auto b = static_cast<std::uint32_t>(rng.below(ll.points.size()));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      ll.edges.push_back({a, b, 1 + static_cast<Dist>(rng.below(200)),
                          rng.chance(0.3)});
    }
  }
  return l;
}

bool labels_equal(const VertexLabel& a, const VertexLabel& b) {
  if (a.owner != b.owner || a.owner_net_level != b.owner_net_level ||
      a.min_level != b.min_level || a.top_level != b.top_level ||
      a.levels.size() != b.levels.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    const auto& la = a.levels[i];
    const auto& lb = b.levels[i];
    if (la.points != lb.points || la.dists != lb.dists) return false;
    if (la.edges.size() != lb.edges.size()) return false;
    for (std::size_t e = 0; e < la.edges.size(); ++e) {
      if (la.edges[e].a != lb.edges[e].a || la.edges[e].b != lb.edges[e].b ||
          la.edges[e].w != lb.edges[e].w ||
          la.edges[e].graph_edge != lb.edges[e].graph_edge) {
        return false;
      }
    }
  }
  return true;
}

TEST(LabelCodec, RoundTripRandomLabels) {
  Rng rng(55);
  for (int iter = 0; iter < 50; ++iter) {
    const Vertex n = 100 + rng.vertex(900);
    const unsigned min_level = 3 + static_cast<unsigned>(rng.below(3));
    const unsigned top_level = min_level + static_cast<unsigned>(rng.below(8));
    const VertexLabel original = random_label(rng, n, min_level, top_level);
    BitWriter w;
    encode_label(original, bits_for(n), w);
    BitReader r(w);
    const VertexLabel decoded = decode_label(r, bits_for(n));
    EXPECT_TRUE(labels_equal(original, decoded));
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(LabelCodec, IncrementalEncodingMatchesWholeLabel) {
  Rng rng(56);
  const VertexLabel l = random_label(rng, 500, 4, 9);
  BitWriter whole, incremental;
  encode_label(l, bits_for(500), whole);
  encode_label_header(l.owner, l.owner_net_level, l.min_level, l.top_level,
                      bits_for(500), incremental);
  for (const auto& ll : l.levels) {
    encode_level(ll, l.owner, bits_for(500), incremental);
  }
  EXPECT_EQ(whole.bit_size(), incremental.bit_size());
  EXPECT_EQ(whole.words(), incremental.words());
}

TEST(LabelCodec, SingleLevelMinimalLabel) {
  VertexLabel l;
  l.owner = 7;
  l.owner_net_level = 0;
  l.min_level = 4;
  l.top_level = 4;
  l.levels.resize(1);
  l.levels[0].points = {7};
  l.levels[0].dists = {0};
  BitWriter w;
  encode_label(l, 5, w);
  BitReader r(w);
  const VertexLabel d = decode_label(r, 5);
  EXPECT_TRUE(labels_equal(l, d));
  EXPECT_TRUE(d.has_level(4));
  EXPECT_FALSE(d.has_level(3));
  EXPECT_FALSE(d.has_level(5));
}

TEST(LabelCodec, EncodeRejectsMalformedLevel) {
  VertexLabel l;
  l.owner = 1;
  l.min_level = 4;
  l.top_level = 4;
  l.levels.resize(1);
  l.levels[0].points = {2};  // owner slot wrong
  l.levels[0].dists = {0};
  BitWriter w;
  EXPECT_THROW(encode_label(l, 4, w), std::logic_error);
}

TEST(LabelCodec, EncodeRejectsLevelCountMismatch) {
  VertexLabel l;
  l.owner = 1;
  l.min_level = 4;
  l.top_level = 6;
  l.levels.resize(1);  // should be 3
  BitWriter w;
  EXPECT_THROW(encode_label(l, 4, w), std::logic_error);
}

TEST(LabelCodec, LevelAccessor) {
  Rng rng(57);
  const VertexLabel l = random_label(rng, 300, 5, 8);
  EXPECT_EQ(&l.level(5), &l.levels[0]);
  EXPECT_EQ(&l.level(8), &l.levels[3]);
  EXPECT_THROW(l.level(9), std::out_of_range);
}

TEST(LabelCodec, DeltaRoundTripPreservesContent) {
  Rng rng(58);
  for (int iter = 0; iter < 30; ++iter) {
    const Vertex n = 100 + rng.vertex(900);
    VertexLabel original = random_label(rng, n, 4, 8);
    // kDelta requires sorted, unique point lists; normalize the fixture.
    for (auto& ll : original.levels) {
      std::vector<std::pair<Vertex, Dist>> pts;
      for (std::size_t k = 1; k < ll.points.size(); ++k) {
        pts.emplace_back(ll.points[k], ll.dists[k]);
      }
      std::sort(pts.begin(), pts.end());
      pts.erase(std::unique(pts.begin(), pts.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                pts.end());
      ll.points.resize(1);
      ll.dists.resize(1);
      for (const auto& [p, d] : pts) {
        ll.points.push_back(p);
        ll.dists.push_back(d);
      }
      for (auto& e : ll.edges) {
        e.a = std::min<std::uint32_t>(e.a, ll.points.size() - 1);
        e.b = std::min<std::uint32_t>(e.b, ll.points.size() - 1);
        if (e.a == e.b) e.b = 0;
        if (e.a > e.b) std::swap(e.a, e.b);
      }
      ll.edges.erase(std::remove_if(ll.edges.begin(), ll.edges.end(),
                                    [](const SketchEdge& e) {
                                      return e.a == e.b;
                                    }),
                     ll.edges.end());
    }
    BitWriter w;
    encode_label(original, bits_for(n), w, LabelCodec::kDelta);
    BitReader r(w);
    const VertexLabel decoded = decode_label(r, bits_for(n), LabelCodec::kDelta);
    EXPECT_TRUE(r.exhausted());
    // Points survive verbatim; edges come back sorted — compare as sets.
    ASSERT_EQ(decoded.levels.size(), original.levels.size());
    for (std::size_t li = 0; li < original.levels.size(); ++li) {
      EXPECT_EQ(decoded.levels[li].points, original.levels[li].points);
      EXPECT_EQ(decoded.levels[li].dists, original.levels[li].dists);
      auto key = [](const SketchEdge& e) {
        return std::tuple(e.a, e.b, e.w, e.graph_edge);
      };
      std::vector<std::tuple<std::uint32_t, std::uint32_t, Dist, bool>> a, b;
      for (const auto& e : original.levels[li].edges) a.push_back(key(e));
      for (const auto& e : decoded.levels[li].edges) b.push_back(key(e));
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b);
    }
  }
}

TEST(LabelCodec, DeltaRejectsUnsortedPoints) {
  VertexLabel l;
  l.owner = 1;
  l.min_level = 4;
  l.top_level = 4;
  l.levels.resize(1);
  l.levels[0].points = {1, 9, 3};  // out of order
  l.levels[0].dists = {0, 2, 2};
  BitWriter w;
  EXPECT_THROW(encode_label(l, 5, w, LabelCodec::kDelta), std::logic_error);
}

/// One level, owner 1 plus point 0: the smallest label an edge can sit in.
VertexLabel two_point_label(SketchEdge edge) {
  VertexLabel l;
  l.owner = 1;
  l.min_level = 4;
  l.top_level = 4;
  l.levels.resize(1);
  l.levels[0].points = {1, 0};
  l.levels[0].dists = {0, 3};
  l.levels[0].edges = {edge};
  return l;
}

// A CRC-valid file or GET_LABEL reply can still carry bits no builder
// wrote; an edge index past the level's points would be read out of bounds
// by the decoder's filter, so decode must refuse it.
TEST(LabelCodec, DecodeRejectsEdgeIndicesOutsideTheLevel) {
  for (LabelCodec codec : {LabelCodec::kClassic, LabelCodec::kDelta}) {
    BitWriter w;
    encode_label(two_point_label({0, 900000, 2, false}), 4, w, codec);
    BitReader r(w);
    EXPECT_THROW(decode_label(r, 4, codec), std::runtime_error);
  }
  // a < b is part of the contract too (classic can express a >= b).
  for (const SketchEdge e : {SketchEdge{1, 1, 2, false},
                             SketchEdge{1, 0, 2, false}}) {
    BitWriter w;
    encode_label(two_point_label(e), 4, w);
    BitReader r(w);
    EXPECT_THROW(decode_label(r, 4), std::runtime_error);
  }
}

// ~60 bits claiming 2^26 points (or edges, or levels): the count is
// checked against the bits left before anything is allocated, so this is
// a runtime_error from the count check, not a 512 MB resize followed by
// "past end" (std::out_of_range).
TEST(LabelCodec, DecodeRejectsCountsTheBitsCannotHold) {
  enum Lie { kPoints, kEdges, kLevels };
  for (LabelCodec codec : {LabelCodec::kClassic, LabelCodec::kDelta}) {
    for (Lie lie : {kPoints, kEdges, kLevels}) {
      BitWriter w;
      w.write_bits(1, 8);   // owner
      w.write_gamma0(0);    // owner_net_level
      w.write_gamma0(4);    // min_level
      w.write_gamma0(lie == kLevels ? (1u << 26) : 0);  // top - min
      w.write_gamma0(lie == kPoints ? (1u << 26) : 0);  // extra points
      w.write_gamma0(lie == kEdges ? (1u << 26) : 0);   // edges
      EXPECT_LE(w.bit_size(), 128u);
      BitReader r(w);
      EXPECT_THROW(decode_label(r, 8, codec), std::runtime_error)
          << "lie=" << lie << " codec=" << static_cast<int>(codec);
    }
  }
}

}  // namespace
}  // namespace fsdl
