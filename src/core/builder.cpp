// Label construction (paper §2.1, "Labels").
//
// For each level i ∈ I = {c+1, …, top}:
//   - level i draws its points from net N_q, q = i - c - 1;
//   - every net point x ∈ N_q runs a BFS truncated at radius r_i; each
//     visited vertex v records (x, d_G(v, x)) — this inverts "collect
//     N_q ∩ B(v, r_i)" into per-net-point work;
//   - the same BFS records net-point pair distances <= λ_i (the virtual
//     edges): the level graph H_i, stored once in the LevelGraphStore;
//     per vertex, the level's edge set is the induced subgraph of H_i on
//     its ball, plus owner-to-point edges.
//
// Total work is Σ_i Σ_{x ∈ N_q} |B(x, r_i)| ⋅ deg — the net density and the
// ball radius grow/shrink in lockstep, giving n ⋅ 2^{O(α)} per level.
//
// Parallel construction (BuildOptions::threads). Each level runs these
// passes:
//   1. BFS fan-out over net points — each net point's truncated BFS is an
//      independent read-only walk of G, so workers run them concurrently
//      with per-worker BfsRunner scratch, writing into per-net-point output
//      slots (visits[idx], pair_adj[idx]). A slot's content depends only on
//      the graph and its source, never on which worker ran it.
//   2. Serial inversion of visits into per-vertex ball lists. Iterating net
//      points in net order reproduces the serial builder's increasing-
//      net-point ordering of lists[v] exactly; this pass is O(Σ|B|) plain
//      appends, a sliver of the BFS edge-scan work it follows.
//   Store write (serial): H_i from pair_adj (or, at the compact lowest
//      level, G's edges among net points), then each vertex's hub list
//      P_i(v) from lists[v] with its owner edges, in vertex order.
//   3. Encode fan-out over vertices — each vertex's level graph is listed
//      from the (now read-only) store in canonical order and encoded into
//      its own preallocated labels_[v] BitWriter with per-worker LevelLabel
//      scratch. Distinct vector slots, no shared mutation.
// Hence labels are bit-identical for every thread count, which
// parallel_build_test asserts and the CI thread matrix re-checks. With a
// single worker, passes 1-2 fuse into the classic direct-append loop (no
// per-net-point visit buffers), so the serial build pays no staging tax.
#include <algorithm>
#include <stdexcept>

#include "core/labeling.hpp"
#include "core/level_store.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "graph/diameter.hpp"
#include "nets/net_hierarchy.hpp"
#include "util/parallel.hpp"

namespace fsdl {
namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

unsigned ceil_log2_plus1(Dist d) noexcept {
  unsigned t = 0;
  while ((Dist{1} << t) < d + 1 && t < 31) ++t;
  return t;
}

}  // namespace

ForbiddenSetLabeling ForbiddenSetLabeling::build(const Graph& g,
                                                 const SchemeParams& params,
                                                 const BuildOptions& options) {
  const Vertex n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("empty graph");

  ForbiddenSetLabeling scheme;
  scheme.params_ = params;
  scheme.vertex_bits_ = bits_for(n);
  scheme.codec_ = options.codec;

  unsigned top = default_top_level(n);
  if (options.cap_levels_at_diameter && is_connected(g)) {
    // diam <= 2 * ecc(any vertex); the double-sweep endpoint's eccentricity
    // is usually the diameter itself. 2^top >= diam is what correctness of
    // the top-level case needs.
    const Dist sweep = double_sweep_lower_bound(g);
    top = std::min(top, ceil_log2_plus1(2 * sweep));
  }
  top = std::max(top, params.min_level());
  scheme.top_level_ = top;

  const unsigned net_top = top - params.c - 1;
  const NetHierarchy nets = build_net_hierarchy(g, net_top);

  scheme.labels_.resize(n);
  LevelGraphStore store(n, params.min_level(), top);
  for (Vertex v = 0; v < n; ++v) {
    encode_label_header(v, nets.max_level_of(v), params.min_level(), top,
                        scheme.vertex_bits_, scheme.labels_[v]);
    store.add_label(v, nets.max_level_of(v));
  }

  const unsigned threads = resolve_threads(options.threads);
  // Per-worker scratch. Workers never share a slot: worker t touches only
  // runners[t], scratch[t].
  std::vector<BfsRunner> runners;
  runners.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) runners.emplace_back(g);
  std::vector<LevelLabel> scratch(threads);
  // Shared, read-only during the fan-outs: rank of a vertex within the
  // current level's net (or kNone).
  std::vector<std::uint32_t> rank(n, kNone);

  for (unsigned i = params.min_level(); i <= top; ++i) {
    const unsigned q = params.net_level(i);
    const Dist lambda = params.lambda(i);
    const Dist radius = params.r(i);
    const auto& net = nets.level(q);
    const bool all_pairs = params.lowest_level_all_pairs || i > params.min_level();

    std::fill(rank.begin(), rank.end(), kNone);
    for (std::uint32_t idx = 0; idx < net.size(); ++idx) rank[net[idx]] = idx;

    // Pass 1 — one truncated BFS per net point, fanned out over workers.
    // visits[idx] = (vertex, distance) pairs of B(net[idx], r_i) in BFS
    // order; pair_adj[rank(x)] = net points y > x with d_G(x, y) <= λ_i.
    // Pass 2 — invert per-source visit lists into per-vertex ball lists:
    // lists[v] = (net point, distance) pairs with d <= r_i. Iterating the
    // net in order yields increasing net-point id order in every lists[v]
    // regardless of which worker ran which BFS. Each visit list is released
    // as soon as it is consumed. With a single worker the two passes fuse:
    // the BFS callback appends straight into lists[v], skipping the visit
    // buffers entirely — the net iteration order alone already yields the
    // same per-vertex ordering, so the output is unchanged.
    std::vector<std::vector<std::pair<Vertex, Dist>>> lists(n);
    std::vector<std::vector<std::pair<Vertex, Dist>>> pair_adj(net.size());
    if (threads <= 1) {
      for (std::uint32_t idx = 0; idx < net.size(); ++idx) {
        const Vertex x = net[idx];
        auto& pairs = pair_adj[idx];
        runners[0].run(x, radius, [&](Vertex v, Dist d) {
          lists[v].emplace_back(x, d);
          if (all_pairs && d > 0 && d <= lambda && v > x && rank[v] != kNone) {
            pairs.emplace_back(v, d);
          }
        });
      }
    } else {
      std::vector<std::vector<std::pair<Vertex, Dist>>> visits(net.size());
      parallel_for(net.size(), threads, [&](unsigned tid, std::size_t idx) {
        const Vertex x = net[idx];
        auto& vis = visits[idx];
        auto& pairs = pair_adj[idx];
        runners[tid].run(x, radius, [&](Vertex v, Dist d) {
          vis.emplace_back(v, d);
          if (all_pairs && d > 0 && d <= lambda && v > x && rank[v] != kNone) {
            pairs.emplace_back(v, d);
          }
        });
      });
      for (std::uint32_t idx = 0; idx < net.size(); ++idx) {
        const Vertex x = net[idx];
        for (const auto& [v, d] : visits[idx]) lists[v].emplace_back(x, d);
        std::vector<std::pair<Vertex, Dist>>().swap(visits[idx]);
      }
    }

    const bool lowest = i == params.min_level();
    // H_i as a CSR over vertex ids: the pairs of pair_adj, or, at the
    // compact lowest level, G's own edges among the level's net points.
    {
      std::vector<std::uint32_t> row_begin(static_cast<std::size_t>(n) + 1);
      std::vector<LevelEdge> entries;
      for (Vertex x = 0; x < n; ++x) {
        row_begin[x] = static_cast<std::uint32_t>(entries.size());
        const std::uint32_t rx = rank[x];
        if (rx == kNone) continue;
        if (all_pairs) {
          for (const auto& [y, d] : pair_adj[rx]) {
            entries.push_back(LevelEdge::make(y, d, lowest && d == 1));
          }
        } else {
          for (Vertex y : g.neighbors(x)) {
            if (y > x && rank[y] != kNone) {
              entries.push_back(LevelEdge::make(y, 1, true));
            }
          }
        }
      }
      row_begin[n] = static_cast<std::uint32_t>(entries.size());
      std::vector<std::vector<std::pair<Vertex, Dist>>>().swap(pair_adj);
      store.set_level_graph(i, std::move(row_begin), std::move(entries));
    }

    // Hub lists P_i(v) with their owner edges, in vertex (= label) order.
    // Each ball list is released as soon as it is copied.
    {
      std::vector<Vertex> points;
      std::vector<Dist> dists;
      for (Vertex v = 0; v < n; ++v) {
        points.assign(1, v);
        dists.assign(1, 0);
        for (const auto& [x, d] : lists[v]) {
          if (x == v) continue;  // owner occupies slot 0
          points.push_back(x);
          dists.push_back(d);
        }
        std::vector<std::pair<Vertex, Dist>>().swap(lists[v]);
        std::vector<LevelEdge> owner_edges;
        if (all_pairs) {
          // Owner-to-point edges (v, x) with d <= λ_i.
          for (std::uint32_t k = 1; k < points.size(); ++k) {
            if (dists[k] <= lambda) {
              owner_edges.push_back(
                  LevelEdge::make(k, dists[k], lowest && dists[k] == 1));
            }
          }
        } else {
          // Compact lowest level: the owner's graph edges into its ball.
          for (Vertex y : g.neighbors(v)) {
            const auto it = std::lower_bound(points.begin() + 1, points.end(), y);
            if (it != points.end() && *it == y) {
              owner_edges.push_back(LevelEdge::make(
                  static_cast<std::uint32_t>(it - points.begin()), 1, true));
            }
          }
        }
        store.append_hub(i, points, dists, std::move(owner_edges));
      }
    }

    // Pass 3 — encode each vertex's level graph, listed from the store in
    // canonical order, fanned out over vertices; each writes only its own
    // labels_[v] slot.
    parallel_for(n, threads, [&](unsigned tid, std::size_t vi) {
      const Vertex v = static_cast<Vertex>(vi);
      const LevelView view = store.level_view(v, i);
      LevelLabel& ll = scratch[tid];
      ll.points.assign(view.points.begin(), view.points.end());
      ll.dists.assign(view.dists.begin(), view.dists.end());
      ll.edges.clear();
      view.for_each_edge([&](std::uint32_t a, std::uint32_t b, Dist w,
                             bool graph_edge) {
        ll.edges.push_back({a, b, w, graph_edge});
      });
      encode_level(ll, v, scheme.vertex_bits_, scheme.labels_[v],
                   options.codec);
    });
  }
  for (auto& w : scheme.labels_) w.shrink_to_fit();
  scheme.store_ = std::make_shared<const LevelGraphStore>(std::move(store));
  return scheme;
}

VertexLabel ForbiddenSetLabeling::label(Vertex v) const {
  BitReader reader(labels_.at(v));
  return decode_label(reader, vertex_bits_, codec_);
}

std::size_t ForbiddenSetLabeling::max_label_bits() const {
  std::size_t best = 0;
  for (const auto& w : labels_) best = std::max(best, w.bit_size());
  return best;
}

double ForbiddenSetLabeling::mean_label_bits() const {
  if (labels_.empty()) return 0.0;
  return static_cast<double>(total_bits()) / static_cast<double>(labels_.size());
}

std::size_t ForbiddenSetLabeling::total_bits() const {
  std::size_t sum = 0;
  for (const auto& w : labels_) sum += w.bit_size();
  return sum;
}

}  // namespace fsdl
