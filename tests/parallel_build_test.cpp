// Determinism contract of the parallel label builder (and the flat
// containers the decoder's hot path rides on).
//
// The headline guarantee: ForbiddenSetLabeling::build produces bit-identical
// labels for every thread count. The tests pin explicit odd thread counts
// (3, 5) rather than hardware concurrency so the fan-out path is exercised
// even on single-core CI runners, and compare full serialized schemes, not
// just size summaries.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "core/serialize.hpp"
#include "graph/components.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "util/flat_map.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

std::string serialized(const ForbiddenSetLabeling& scheme) {
  std::ostringstream out;
  save_labeling(scheme, out);
  return out.str();
}

ForbiddenSetLabeling build_with(const Graph& g, const SchemeParams& params,
                                unsigned threads,
                                LabelCodec codec = LabelCodec::kClassic) {
  BuildOptions options;
  options.threads = threads;
  options.codec = codec;
  return ForbiddenSetLabeling::build(g, params, options);
}

/// Compares serialized schemes across thread counts 3, 5, and auto against
/// the serial reference.
void expect_bit_identical(const Graph& g, const SchemeParams& params,
                          LabelCodec codec = LabelCodec::kClassic) {
  const auto reference = build_with(g, params, 1, codec);
  const std::string blob = serialized(reference);
  for (const unsigned threads : {3u, 5u, 0u}) {
    const auto scheme = build_with(g, params, threads, codec);
    EXPECT_EQ(scheme.total_bits(), reference.total_bits())
        << "threads=" << threads;
    EXPECT_EQ(serialized(scheme), blob) << "threads=" << threads;
  }
}

TEST(ParallelBuild, GridBitIdentical) {
  expect_bit_identical(make_grid2d(9, 9), SchemeParams::faithful(1.0));
}

TEST(ParallelBuild, GridCompactDeltaCodecBitIdentical) {
  expect_bit_identical(make_grid2d(17, 17), SchemeParams::compact(1.0, 2),
                       LabelCodec::kDelta);
}

TEST(ParallelBuild, RandomDoublingBitIdentical) {
  Rng rng(404);
  const Graph g =
      largest_component_subgraph(make_unit_disk(140, 0.13, rng));
  expect_bit_identical(g, SchemeParams::faithful(0.5));
}

TEST(ParallelBuild, DisconnectedGraphBitIdentical) {
  // Raw unit-disk sample, components kept: the builder must fan out over a
  // net whose BFS balls never cross component boundaries.
  Rng rng(77);
  const Graph g = make_unit_disk(150, 0.09, rng);
  expect_bit_identical(g, SchemeParams::compact(1.0, 2));
}

TEST(ParallelBuild, ParallelSchemeAnswersMatchSerial) {
  // Belt and braces on top of bit-identity: drive real queries through a
  // parallel-built scheme and the serial one.
  const Graph g = make_grid2d(9, 9);
  const auto serial = build_with(g, SchemeParams::faithful(1.0), 1);
  const auto parallel = build_with(g, SchemeParams::faithful(1.0), 3);
  const ForbiddenSetOracle a(serial);
  const ForbiddenSetOracle b(parallel);
  Rng rng(9);
  for (int q = 0; q < 40; ++q) {
    const Vertex s = rng.vertex(g.num_vertices());
    const Vertex t = rng.vertex(g.num_vertices());
    FaultSet f;
    for (unsigned k = 0; k < rng.below(4); ++k) {
      f.add_vertex(rng.vertex(g.num_vertices()));
    }
    const QueryResult qa = a.query(s, t, f);
    const QueryResult qb = b.query(s, t, f);
    ASSERT_EQ(qa.distance, qb.distance) << "s=" << s << " t=" << t;
    ASSERT_EQ(qa.waypoints, qb.waypoints);
  }
}

// ---------------------------------------------------------------------------
// Flat decoder structures vs exact ground truth.

TEST(FlatDecoder, PreparedMatchesExactDijkstraBounds) {
  const Graph g = make_grid2d(11, 11);
  const double eps = 1.0;
  const auto scheme = ForbiddenSetLabeling::build(
      g, SchemeParams::faithful(eps));
  const ForbiddenSetOracle oracle(scheme);
  Rng rng(2024);
  for (int round = 0; round < 12; ++round) {
    FaultSet f;
    for (unsigned k = 0; k < 1 + rng.below(4); ++k) {
      if (rng.chance(0.3)) {
        const Vertex a = rng.vertex(g.num_vertices());
        const auto nb = g.neighbors(a);
        if (!nb.empty()) f.add_edge(a, nb[rng.below(nb.size())]);
      } else {
        f.add_vertex(rng.vertex(g.num_vertices()));
      }
    }
    const PreparedFaults prepared = oracle.prepare(f);
    for (int q = 0; q < 15; ++q) {
      const Vertex s = rng.vertex(g.num_vertices());
      const Vertex t = rng.vertex(g.num_vertices());
      if (f.vertex_faulty(s) || f.vertex_faulty(t)) continue;
      const Dist exact = distance_avoiding(g, s, t, f);
      const QueryResult qr =
          prepared.query(oracle.label(s), oracle.label(t));
      if (exact == kInfDist) {
        ASSERT_EQ(qr.distance, kInfDist) << "s=" << s << " t=" << t;
        continue;
      }
      ASSERT_GE(qr.distance, exact) << "s=" << s << " t=" << t;
      ASSERT_LE(static_cast<double>(qr.distance), (1.0 + eps) * exact + 1e-9)
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(FlatDecoder, RepeatedQueriesAreByteStable) {
  // The thread_local scratch must not leak state between queries.
  const Graph g = make_grid2d(8, 8);
  const auto scheme =
      ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  const ForbiddenSetOracle oracle(scheme);
  FaultSet f;
  f.add_vertex(27);
  f.add_edge(9, 10);
  const PreparedFaults prepared = oracle.prepare(f);
  const QueryResult first = prepared.query(oracle.label(0), oracle.label(63));
  for (int k = 0; k < 5; ++k) {
    const QueryResult again =
        prepared.query(oracle.label(0), oracle.label(63));
    ASSERT_EQ(again.distance, first.distance);
    ASSERT_EQ(again.waypoints, first.waypoints);
  }
}

// ---------------------------------------------------------------------------
// Unit coverage of the flat containers and the fork-join primitive.

TEST(FlatContainers, FlatDistMapFindAndFirstWins) {
  FlatDistMap empty;
  EXPECT_EQ(empty.find(3), nullptr);

  std::vector<std::pair<Vertex, Dist>> entries = {
      {7, 2}, {1000003, 9}, {0, 5}, {7, 100}};
  const FlatDistMap m(entries);
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 2u);  // first insertion wins over the later {7, 100}
  ASSERT_NE(m.find(0), nullptr);
  EXPECT_EQ(*m.find(0), 5u);
  ASSERT_NE(m.find(1000003), nullptr);
  EXPECT_EQ(*m.find(1000003), 9u);
  EXPECT_EQ(m.find(8), nullptr);
}

TEST(FlatContainers, FlatMaskMapOrsBitsPerKeyAcrossWords) {
  const FlatMaskMap empty(2, {});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.find(3), nullptr);

  // Two words (bits 0..127); 40 keys force the table through two growths.
  std::vector<std::pair<Vertex, std::uint32_t>> bits;
  for (Vertex v = 0; v < 40; ++v) bits.emplace_back(v * 1000003u % 4096, v);
  bits.emplace_back(0, 64);   // key 0 again, second word
  bits.emplace_back(0, 127);  // and its top bit
  const FlatMaskMap m(2, bits);
  EXPECT_EQ(m.size(), 40u);
  const std::uint64_t* zero = m.find(0);
  ASSERT_NE(zero, nullptr);
  EXPECT_EQ(zero[0], 1u);  // bit 0 from the first pair
  EXPECT_EQ(zero[1], (std::uint64_t{1} << 63) | 1u);
  for (Vertex v = 1; v < 40; ++v) {
    const std::uint64_t* mask = m.find(v * 1000003u % 4096);
    ASSERT_NE(mask, nullptr) << v;
    EXPECT_EQ(mask[0], std::uint64_t{1} << v) << v;
    EXPECT_EQ(mask[1], 0u) << v;
  }
  EXPECT_EQ(m.find(4097), nullptr);
}

TEST(FlatContainers, EdgeAccumulatorKeepsMinAndClearsInO1) {
  EdgeAccumulator acc;
  acc.keep_min(42, 7);
  acc.keep_min(42, 3);
  acc.keep_min(42, 9);
  acc.keep_min(1, 1);
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc.entries()[0], (std::pair<std::uint64_t, Dist>{42, 3}));
  EXPECT_EQ(acc.entries()[1], (std::pair<std::uint64_t, Dist>{1, 1}));

  acc.clear();
  EXPECT_EQ(acc.size(), 0u);
  acc.keep_min(42, 8);  // stale epoch slot must not resurrect the old min
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc.entries()[0].second, 8u);

  // Grow across several doublings with colliding-ish keys.
  acc.clear();
  for (std::uint64_t k = 0; k < 1000; ++k) acc.keep_min(k << 32, 1000 - k);
  EXPECT_EQ(acc.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(acc.entries()[k].first, k << 32);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(997);
  parallel_for(hits.size(), 4, [&](unsigned, std::size_t k) {
    hits[k].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesBodyException) {
  EXPECT_THROW(
      parallel_for(100, 3,
                   [&](unsigned, std::size_t k) {
                     if (k == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ResolveThreadsHonorsExplicitRequest) {
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(6), 6u);
  EXPECT_GE(resolve_threads(0), 1u);
}

}  // namespace
}  // namespace fsdl
