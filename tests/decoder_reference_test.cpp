// Differential test: the production decoder against the frozen reference
// (tests/reference_decode.*). Both must prepare the same fault-label edge
// list (same keys, weights and order) and return bit-identical distances
// and waypoints, and each query must build the same sketch (same edges
// considered by the query itself, same sketch size, same Dijkstra work).
// The prepare's own share of edges_considered may differ: production's
// union walk counts H_i entries visited where the reference counts label
// edges. pb_checks may differ too: it counts lookups, whose unit the two
// decoders define differently. The reference reads decoded VertexLabels;
// production reads LabelViews over a LevelGraphStore, on every store a
// label can come from (the builder's, one rebuilt from a file, a shard
// piece's, the router's single-label stores decoded from GET_LABEL blobs),
// under the faithful, compact and weighted builders. Labels of one store
// take the union walk; labels spread over stores take the per-label path.
// The label decode is checked the same way: the production
// BitReader/decode_label against the frozen bit-by-bit copy, on every
// route a label takes (in process, through a .fsdl file, over the wire).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/decoder.hpp"
#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "core/serialize.hpp"
#include "core/weighted.hpp"
#include "graph/components.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "graph/wgraph.hpp"
#include "reference_decode.hpp"
#include "shard/partition.hpp"
#include "shard/shard_store.hpp"
#include "shard/wire_label.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

struct Scheme {
  std::string name;
  Graph graph;
  std::unique_ptr<ForbiddenSetLabeling> labeling;
  std::unique_ptr<ForbiddenSetOracle> oracle;
  /// Every label decoded from its bits: the frozen reference's input.
  std::vector<VertexLabel> decoded;
  /// Every label as the router holds it: a single-label store decoded from
  /// its GET_LABEL blob.
  std::vector<shard::WireLabel> wire;
};

/// A scheme over a built labeling; `g` is its graph's skeleton (the
/// faults are drawn from its edges).
std::unique_ptr<Scheme> make_scheme(std::string name, Graph g,
                                    ForbiddenSetLabeling labeling) {
  auto s = std::make_unique<Scheme>();
  s->name = std::move(name);
  s->graph = std::move(g);
  s->labeling = std::make_unique<ForbiddenSetLabeling>(std::move(labeling));
  s->oracle = std::make_unique<ForbiddenSetOracle>(*s->labeling);
  for (Vertex v = 0; v < s->labeling->num_vertices(); ++v) {
    s->decoded.push_back(s->labeling->label(v));
    s->wire.push_back(shard::decode_wire_label(
        shard::encode_wire_label(*s->labeling, v, 1),
        s->labeling->num_vertices()));
  }
  return s;
}

std::unique_ptr<Scheme> make_scheme(std::string name, Graph g,
                                    const SchemeParams& params,
                                    const BuildOptions& options = {}) {
  ForbiddenSetLabeling labeling = ForbiddenSetLabeling::build(g, params, options);
  return make_scheme(std::move(name), std::move(g), std::move(labeling));
}

/// The weighted builder's scheme over `g` with random weights in [1, 5].
std::unique_ptr<Scheme> make_weighted_scheme(std::string name, const Graph& g,
                                             const SchemeParams& params,
                                             const BuildOptions& options = {}) {
  Rng rng(0x3e1647);
  const WeightedGraph wg = weighted_from(g, 5, rng);
  return make_scheme(std::move(name), unweighted_skeleton(wg),
                     build_weighted_labeling(wg, params, options));
}

/// `size` faults, each an edge with probability 0.4, else a vertex.
FaultSet random_faults(const Graph& g, Rng& rng, unsigned size) {
  FaultSet f;
  const Vertex n = g.num_vertices();
  while (f.size() < size) {
    const Vertex a = rng.vertex(n);
    if (rng.chance(0.4)) {
      const auto nb = g.neighbors(a);
      if (nb.empty()) continue;
      const Vertex b = nb[rng.below(nb.size())];
      if (!f.edge_faulty(a, b)) f.add_edge(a, b);
    } else if (!f.vertex_faulty(a)) {
      f.add_vertex(a);
    }
  }
  return f;
}

reference::QueryInput input_for(const Scheme& scheme, Vertex s, Vertex t,
                                const FaultSet& f) {
  const std::vector<VertexLabel>& d = scheme.decoded;
  reference::QueryInput in;
  in.source = &d[s];
  in.target = &d[t];
  for (Vertex v : f.vertices()) in.fault_vertices.push_back(&d[v]);
  for (const auto& [a, b] : f.edges()) {
    in.fault_edges.emplace_back(&d[a], &d[b]);
  }
  return in;
}

reference::PreparedFaults reference_prepare(const Scheme& scheme,
                                            const FaultSet& f) {
  const reference::QueryInput in = input_for(scheme, 0, 0, f);
  return reference::PreparedFaults(scheme.labeling->params(),
                                   in.fault_vertices, in.fault_edges);
}

/// `r` with the prepare's share taken out of edges_considered: a prepared
/// query's stats start from prepare_stats(), whose edges_considered counts
/// H_i entries on production's union walk but label edges in the reference.
template <typename Prepared>
QueryResult own_share(QueryResult r, const Prepared& prepared) {
  r.stats.edges_considered -= prepared.prepare_stats().edges_considered;
  return r;
}

/// The query's own share of its answer and work.
QueryResult query_share(const PreparedFaults& prepared, const LabelView& s,
                        const LabelView& t) {
  return own_share(prepared.query(s, t), prepared);
}
QueryResult query_share(const reference::PreparedFaults& prepared,
                        const VertexLabel& s, const VertexLabel& t) {
  return own_share(prepared.query(s, t), prepared);
}

/// Both prepared the same fault-label edge list: keys, weights and order.
::testing::AssertionResult same_center_edges(
    const PreparedFaults& got, const reference::PreparedFaults& want) {
  const auto& g = got.center_edges();
  const auto& w = want.center_edges();
  for (std::size_t e = 0; e < std::min(g.size(), w.size()); ++e) {
    if (g[e] != w[e]) {
      return ::testing::AssertionFailure()
             << "center edge " << e << " of " << w.size() << " differs: key "
             << g[e].first << " w " << g[e].second << " vs key " << w[e].first
             << " w " << w[e].second;
    }
  }
  if (g.size() != w.size()) {
    return ::testing::AssertionFailure()
           << g.size() << " center edges vs " << w.size();
  }
  return ::testing::AssertionSuccess();
}

/// Identical answers and query-side work; `got` and `want` carry only the
/// query's own share of edges_considered (query_share).
::testing::AssertionResult identical(const QueryResult& got,
                                     const QueryResult& want) {
  const auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs: distance " << got.distance << " vs "
           << want.distance << ", " << got.waypoints.size() << " vs "
           << want.waypoints.size() << " waypoints";
  };
  if (got.distance != want.distance) return fail("distance");
  if (got.waypoints != want.waypoints) return fail("waypoints");
  if (got.stats.edges_considered != want.stats.edges_considered) {
    return fail("edges_considered");
  }
  if (got.stats.sketch_vertices != want.stats.sketch_vertices) {
    return fail("sketch_vertices");
  }
  if (got.stats.sketch_edges != want.stats.sketch_edges) {
    return fail("sketch_edges");
  }
  if (got.stats.dijkstra_relaxations != want.stats.dijkstra_relaxations) {
    return fail("dijkstra_relaxations");
  }
  return ::testing::AssertionSuccess();
}

/// Query endpoints for one fault set: random pairs, plus pairs whose source
/// or target is itself a fault (vertex fault or fault-edge endpoint).
std::vector<std::pair<Vertex, Vertex>> endpoints(const Graph& g,
                                                 const FaultSet& f, Rng& rng,
                                                 unsigned random_pairs) {
  const Vertex n = g.num_vertices();
  std::vector<std::pair<Vertex, Vertex>> out;
  for (unsigned q = 0; q < random_pairs; ++q) {
    out.emplace_back(rng.vertex(n), rng.vertex(n));
  }
  if (!f.vertices().empty()) {
    const Vertex v = f.vertices().front();
    out.emplace_back(v, rng.vertex(n));
    out.emplace_back(rng.vertex(n), v);
  }
  if (!f.edges().empty()) {
    const auto [a, b] = f.edges().front();
    out.emplace_back(a, rng.vertex(n));
    out.emplace_back(rng.vertex(n), b);
  }
  return out;
}

/// The router's decode: F prepared over single-label stores, which takes
/// the per-label path.
PreparedFaults single_label_prepare(const Scheme& scheme, const FaultSet& f) {
  const auto view = [&](Vertex v) { return scheme.wire[v].label(); };
  std::vector<LabelView> vertices;
  for (Vertex v : f.vertices()) vertices.push_back(view(v));
  std::vector<std::pair<LabelView, LabelView>> edges;
  for (const auto& [a, b] : f.edges()) edges.emplace_back(view(a), view(b));
  return PreparedFaults(scheme.labeling->params(), std::move(vertices),
                        std::move(edges));
}

/// Every (s, t) of `pairs` against F, prepared over the oracle's store (the
/// union walk) and over single-label stores (the per-label path, queried
/// as the router does), against the reference; returns how many pairs were
/// reachable.
std::size_t check_fault_set(
    const Scheme& scheme, const FaultSet& f,
    const std::vector<std::pair<Vertex, Vertex>>& pairs) {
  const ForbiddenSetOracle& o = *scheme.oracle;
  const PreparedFaults prepared = o.prepare(f);
  const PreparedFaults single = single_label_prepare(scheme, f);
  const reference::PreparedFaults want_prepared = reference_prepare(scheme, f);
  EXPECT_EQ(prepared.num_centers(), want_prepared.num_centers());
  EXPECT_TRUE(same_center_edges(prepared, want_prepared))
      << "union walk " << scheme.name << " |F|=" << f.size();
  EXPECT_TRUE(same_center_edges(single, want_prepared))
      << "single-label stores " << scheme.name << " |F|=" << f.size();
  std::size_t reachable = 0;
  const auto wire = [&](Vertex v) { return scheme.wire[v].label(); };
  for (const auto& [s, t] : pairs) {
    std::ostringstream ctx;
    ctx << scheme.name << " |F|=" << f.size() << " centers="
        << prepared.num_centers() << " s=" << s << " t=" << t;
    const QueryResult want =
        query_share(want_prepared, scheme.decoded[s], scheme.decoded[t]);
    EXPECT_TRUE(identical(query_share(single, wire(s), wire(t)), want))
        << "single-label " << ctx.str();
    const QueryResult got = query_share(prepared, o.label(s), o.label(t));
    EXPECT_TRUE(identical(got, want)) << "prepared " << ctx.str();
    if (got.distance != kInfDist) ++reachable;
  }
  return reachable;
}

/// Random geometric graph on a 12×1 strip: n points, an edge between any
/// two within Euclidean distance `radius`; the largest component is kept.
/// The strip (not the unit square) gives it a hop diameter above λ.
Graph make_strip_rgg(Vertex n, double radius, Rng& rng) {
  std::vector<std::pair<double, double>> pts(n);
  for (auto& [x, y] : pts) {
    x = 12.0 * rng.uniform();
    y = rng.uniform();
  }
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const double dx = pts[u].first - pts[v].first;
      const double dy = pts[u].second - pts[v].second;
      if (dx * dx + dy * dy <= radius * radius) b.add_edge(u, v);
    }
  }
  return largest_component_subgraph(b.build());
}

struct Family {
  const char* name;
  Graph graph;
};

// Every family is long and thin: its hop diameter (~40) exceeds λ at the
// lowest certified level (16 compact, 32 faithful ε = 1), so protected
// balls hold part of the graph, not all of it, and certification decides.
std::vector<Family> families() {
  Rng rng(0xdec0de);
  std::vector<Family> out;
  out.push_back({"grid3x40", make_grid2d(3, 40)});
  out.push_back({"king3x40", make_king_grid(3, 40)});
  out.push_back({"strip-rgg", make_strip_rgg(150, 0.4, rng)});
  out.push_back({"caterpillar40x2", make_caterpillar(40, 2)});
  return out;
}

/// The three builders: faithful and compact presets, and the weighted
/// builder (faithful parameters, random weights).
enum class Preset { kFaithful, kCompact, kWeighted };
constexpr Preset kPresets[] = {Preset::kFaithful, Preset::kCompact,
                               Preset::kWeighted};

const char* preset_name(Preset p) {
  return p == Preset::kFaithful  ? " faithful"
         : p == Preset::kCompact ? " compact"
                                 : " weighted";
}

std::unique_ptr<Scheme> make_preset_scheme(std::string name, const Graph& g,
                                           Preset preset, double eps,
                                           const BuildOptions& options = {}) {
  switch (preset) {
    case Preset::kFaithful:
      return make_scheme(std::move(name), g, SchemeParams::faithful(eps),
                         options);
    case Preset::kCompact:
      return make_scheme(std::move(name), g, SchemeParams::compact(eps),
                         options);
    case Preset::kWeighted:
      break;
  }
  return make_weighted_scheme(std::move(name), g, SchemeParams::faithful(eps),
                              options);
}

std::vector<std::unique_ptr<Scheme>> scheme_matrix() {
  std::vector<std::unique_ptr<Scheme>> out;
  for (const Family& fam : families()) {
    for (double eps : {0.5, 1.0}) {
      for (Preset preset : kPresets) {
        std::ostringstream name;
        name << fam.name << preset_name(preset) << " eps=" << eps;
        out.push_back(make_preset_scheme(name.str(), fam.graph, preset, eps));
      }
    }
  }
  return out;
}

TEST(DecoderReference, IdenticalAcrossFamiliesPresetsAndEps) {
  Rng rng(20101);
  std::size_t reachable = 0;
  for (const auto& scheme : scheme_matrix()) {
    SCOPED_TRACE(scheme->name);
    for (unsigned size : {0u, 1u, 2u, 4u, 8u}) {
      const FaultSet f = random_faults(scheme->graph, rng, size);
      reachable += check_fault_set(*scheme, f,
                                   endpoints(scheme->graph, f, rng, 10));
    }
  }
  EXPECT_GT(reachable, 0u);
}

/// The pieces of a K-way split, each with its own oracle (and so its own
/// store: the full H_i plus the piece's labels).
struct Pieces {
  std::vector<ForbiddenSetLabeling> labelings;
  std::vector<std::unique_ptr<ForbiddenSetOracle>> oracles;
  std::unique_ptr<shard::Partitioner> ring;

  Pieces(const ForbiddenSetLabeling& scheme, std::uint32_t k)
      : labelings(shard::split_labeling(scheme, k)) {
    for (const auto& piece : labelings) {
      oracles.push_back(std::make_unique<ForbiddenSetOracle>(piece));
    }
    ring = std::make_unique<shard::Partitioner>(labelings[0].partition());
  }
  LabelView label(Vertex v) const { return oracles[ring->owner(v)]->label(v); }

  /// F prepared over labels drawn from whichever piece owns each vertex.
  PreparedFaults prepare(const SchemeParams& params, const FaultSet& f) const {
    std::vector<LabelView> vertices;
    for (Vertex v : f.vertices()) vertices.push_back(label(v));
    std::vector<std::pair<LabelView, LabelView>> edges;
    for (const auto& [a, b] : f.edges()) edges.emplace_back(label(a), label(b));
    return PreparedFaults(params, std::move(vertices), std::move(edges));
  }
};

// Every store a label can be read from prepares and answers exactly like
// the frozen reference on the decoded labels: the builder's store and
// single-label stores (check_fault_set), a store rebuilt from a saved file,
// and shard pieces' stores with one query's labels spread over three
// pieces, for every builder and for fault sets of up to 70 faults (more
// than 64 centers: two mask words). Both codecs encode one canonical edge
// order, so their answers agree down to the waypoints.
TEST(DecoderReference, EveryStorePathAndCodecMatchesTheReference) {
  std::size_t reachable = 0;
  std::size_t two_word_sets = 0;  // fault sets of more than 64 centers
  std::uint64_t seed = 20104;
  for (const Family& fam : families()) {
    for (Preset preset : kPresets) {
      ++seed;
      std::vector<std::vector<QueryResult>> answers;
      for (LabelCodec codec : {LabelCodec::kClassic, LabelCodec::kDelta}) {
        std::ostringstream name;
        name << fam.name << preset_name(preset)
             << (codec == LabelCodec::kClassic ? " classic" : " delta");
        SCOPED_TRACE(name.str());
        BuildOptions options;
        options.codec = codec;
        const auto scheme =
            make_preset_scheme(name.str(), fam.graph, preset, 1.0, options);
        const SchemeParams& params = scheme->labeling->params();
        std::stringstream file;
        save_labeling(*scheme->labeling, file);
        const ForbiddenSetLabeling loaded = load_labeling(file);
        const ForbiddenSetOracle from_file(loaded);
        const Pieces pieces(*scheme->labeling, 3);

        answers.emplace_back();
        Rng rng(seed);  // the same queries under both codecs
        for (unsigned size : {1u, 4u, 8u, 70u}) {
          const FaultSet f = random_faults(scheme->graph, rng, size);
          const auto pairs = endpoints(scheme->graph, f, rng, 6);
          reachable += check_fault_set(*scheme, f, pairs);
          const reference::PreparedFaults want = reference_prepare(*scheme, f);
          const PreparedFaults file_prepared = from_file.prepare(f);
          const PreparedFaults piece_prepared = pieces.prepare(params, f);
          if (file_prepared.num_centers() > 64) ++two_word_sets;
          EXPECT_TRUE(same_center_edges(file_prepared, want))
              << "file store |F|=" << size;
          EXPECT_TRUE(same_center_edges(piece_prepared, want))
              << "piece stores |F|=" << size;
          for (const auto& [s, t] : pairs) {
            const QueryResult expected =
                query_share(want, scheme->decoded[s], scheme->decoded[t]);
            EXPECT_TRUE(identical(query_share(file_prepared, from_file.label(s),
                                              from_file.label(t)),
                                  expected))
                << "file store s=" << s << " t=" << t;
            EXPECT_TRUE(identical(query_share(piece_prepared, pieces.label(s),
                                              pieces.label(t)),
                                  expected))
                << "piece stores s=" << s << " t=" << t;
            answers.back().push_back(expected);
          }
        }
      }
      ASSERT_EQ(answers[0].size(), answers[1].size());
      for (std::size_t q = 0; q < answers[0].size(); ++q) {
        EXPECT_TRUE(identical(answers[1][q], answers[0][q]))
            << fam.name << preset_name(preset)
            << ": kDelta vs kClassic, query " << q;
      }
    }
  }
  EXPECT_GT(reachable, 0u);
  EXPECT_GT(two_word_sets, 0u);
}

::testing::AssertionResult same_label(const VertexLabel& got,
                                      const VertexLabel& want) {
  const auto fail = [](const char* what) {
    return ::testing::AssertionFailure() << what << " differs";
  };
  if (got.owner != want.owner) return fail("owner");
  if (got.owner_net_level != want.owner_net_level) {
    return fail("owner_net_level");
  }
  if (got.min_level != want.min_level) return fail("min_level");
  if (got.top_level != want.top_level) return fail("top_level");
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

// Every label of every family × preset × codec, decoded by the frozen
// bit-by-bit reader, must come back field-for-field equal from the
// production decoder on all three routes a label travels.
TEST(DecoderReference, LabelDecodeIdenticalUnderEitherCodec) {
  std::size_t labels = 0;
  for (const Family& fam : families()) {
    for (bool faithful : {true, false}) {
      for (LabelCodec codec : {LabelCodec::kClassic, LabelCodec::kDelta}) {
        std::ostringstream name;
        name << fam.name << (faithful ? " faithful" : " compact")
             << (codec == LabelCodec::kClassic ? " classic" : " delta");
        SCOPED_TRACE(name.str());
        BuildOptions options;
        options.codec = codec;
        const ForbiddenSetLabeling scheme = ForbiddenSetLabeling::build(
            fam.graph,
            faithful ? SchemeParams::faithful(1.0) : SchemeParams::compact(1.0),
            options);
        std::stringstream file;
        save_labeling(scheme, file);
        const ForbiddenSetLabeling loaded = load_labeling(file);
        for (Vertex v = 0; v < scheme.num_vertices(); ++v) {
          const BitWriter& bits = shard::ShardStore::raw_label(scheme, v);
          reference::BitReader in(bits);
          const VertexLabel want =
              reference::decode_label(in, scheme.vertex_bits(), codec);
          ASSERT_EQ(in.position(), bits.bit_size()) << "v=" << v;
          ASSERT_TRUE(same_label(scheme.label(v), want)) << "direct v=" << v;
          ASSERT_TRUE(same_label(loaded.label(v), want)) << "file v=" << v;
          const shard::WireLabel wire = shard::decode_wire_label(
              shard::encode_wire_label(scheme, v, 1));
          ASSERT_TRUE(same_label(wire.label().materialize(), want))
              << "wire v=" << v;
          ++labels;
        }
      }
    }
  }
  EXPECT_GT(labels, 0u);
}

/// More than 64 fault centers on a 3×`cols` grid: 66 vertex faults fill
/// its first 22 columns, then two vertex faults and one edge fault sit in
/// the far columns. Those last centers have indices >= 64, so they live in
/// the second mask word and are the only balls that reach the far end.
FaultSet far_end_faults(Vertex cols) {
  FaultSet f;
  for (Vertex v = 0; v < 66; ++v) f.add_vertex((v % 3) * cols + v / 3);
  f.add_vertex(cols - 6);
  f.add_vertex(2 * cols - 12);
  f.add_edge(3 * cols - 4, 3 * cols - 3);
  return f;
}

TEST(DecoderReference, IdenticalBeyondSixtyFourCenters) {
  Rng rng(20102);
  const Vertex cols = 90;
  const auto scheme = make_scheme("grid3x90 compact eps=1",
                                  make_grid2d(3, cols),
                                  SchemeParams::compact(1.0));
  const FaultSet f = far_end_faults(cols);
  ASSERT_GT(scheme->oracle->prepare(f).num_centers(), 64u);
  // Endpoints right of the fault block, where the second word decides.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (int q = 0; q < 8; ++q) {
    const auto far = [&] {
      return static_cast<Vertex>(rng.below(3) * cols + 22 +
                                 rng.below(cols - 22));
    };
    pairs.emplace_back(far(), far());
  }
  EXPECT_GT(check_fault_set(*scheme, f, pairs), 0u);
}

// One PreparedFaults shared by eight threads (as in the server's prepared
// cache): every concurrent answer matches the reference, so the per-thread
// mask scratch never leaks between threads.
TEST(DecoderReference, SharedPreparedFaultsAcrossEightThreads) {
  const auto scheme = make_scheme("grid3x90 compact eps=1",
                                  make_grid2d(3, 90),
                                  SchemeParams::compact(1.0));
  const ForbiddenSetOracle& o = *scheme->oracle;
  Rng rng(20103);
  const FaultSet f = far_end_faults(90);
  const PreparedFaults prepared = o.prepare(f);
  ASSERT_GT(prepared.num_centers(), 64u);
  const reference::PreparedFaults want_prepared = reference_prepare(*scheme, f);

  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 12;
  const Vertex n = scheme->graph.num_vertices();
  std::vector<std::pair<Vertex, Vertex>> pairs;
  std::vector<QueryResult> want;
  for (unsigned q = 0; q < kThreads * kPerThread; ++q) {
    pairs.emplace_back(rng.vertex(n), rng.vertex(n));
    want.push_back(query_share(want_prepared,
                               scheme->decoded[pairs.back().first],
                               scheme->decoded[pairs.back().second]));
  }
  std::atomic<unsigned> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      // Each thread walks every pair, starting at its own offset, so the
      // threads interleave different queries on the shared tables.
      for (unsigned q = 0; q < pairs.size(); ++q) {
        const unsigned k = (q + th * kPerThread) % pairs.size();
        const QueryResult got = query_share(prepared, o.label(pairs[k].first),
                                            o.label(pairs[k].second));
        if (!identical(got, want[k])) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace fsdl
