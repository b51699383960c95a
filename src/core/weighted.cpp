#include "core/weighted.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/level_store.hpp"
#include "graph/wsearch.hpp"
#include "nets/weighted_nets.hpp"

namespace fsdl {
namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

unsigned ceil_log2_plus1(Dist d) noexcept {
  unsigned t = 0;
  while ((Dist{1} << t) < static_cast<std::uint64_t>(d) + 1 && t < 31) ++t;
  return t;
}

/// Weighted double sweep: eccentricity of the farthest vertex from 0.
Dist weighted_sweep(const WeightedGraph& g) {
  auto dist = dijkstra_distances(g, 0);
  Vertex far = 0;
  Dist best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] != kInfDist && dist[v] > best) {
      best = dist[v];
      far = v;
    }
  }
  dist = dijkstra_distances(g, far);
  best = 0;
  for (Dist d : dist) {
    if (d != kInfDist) best = std::max(best, d);
  }
  return best;
}

/// A real edge's weight as a level-edge weight (below 2^31).
template <typename Arc>
Dist real_weight(const Arc& arc) {
  if (arc.weight > LevelEdge::kMaxWeight) {
    throw std::invalid_argument("edge weight must be below 2^31");
  }
  return static_cast<Dist>(arc.weight);
}

bool weighted_connected(const WeightedGraph& g) {
  const auto dist = dijkstra_distances(g, 0);
  return std::find(dist.begin(), dist.end(), kInfDist) == dist.end();
}

}  // namespace

class WeightedLabelingBuilder {
 public:
  static ForbiddenSetLabeling build(const WeightedGraph& g,
                                    const SchemeParams& params,
                                    const BuildOptions& options) {
    const Vertex n = g.num_vertices();
    if (n == 0) throw std::invalid_argument("empty graph");

    ForbiddenSetLabeling scheme;
    scheme.params_ = params;
    scheme.vertex_bits_ = bits_for(n);
    scheme.codec_ = options.codec;

    // Levels must reach the weighted diameter scale: up to log₂(n·W).
    unsigned top = ceil_log2_plus1(
        static_cast<Dist>(std::min<std::uint64_t>(
            static_cast<std::uint64_t>(n) * std::max<Weight>(g.max_weight(), 1),
            Dist{1} << 30)));
    if (options.cap_levels_at_diameter && weighted_connected(g)) {
      top = std::min(top, ceil_log2_plus1(2 * weighted_sweep(g)));
    }
    top = std::max(top, params.min_level());
    scheme.top_level_ = top;

    const NetHierarchy nets =
        build_weighted_net_hierarchy(g, top - params.c - 1);

    scheme.labels_.resize(n);
    LevelGraphStore store(n, params.min_level(), top);
    for (Vertex v = 0; v < n; ++v) {
      encode_label_header(v, nets.max_level_of(v), params.min_level(), top,
                          scheme.vertex_bits_, scheme.labels_[v]);
      store.add_label(v, nets.max_level_of(v));
    }

    DijkstraRunner search(g);
    std::vector<std::uint32_t> rank(n, kNone);

    for (unsigned i = params.min_level(); i <= top; ++i) {
      const unsigned q = params.net_level(i);
      const Dist lambda = params.lambda(i);
      const Dist radius = params.r(i);
      const auto& net = nets.level(q);
      const bool all_pairs =
          params.lowest_level_all_pairs || i > params.min_level();

      std::fill(rank.begin(), rank.end(), kNone);
      for (std::uint32_t idx = 0; idx < net.size(); ++idx) rank[net[idx]] = idx;

      std::vector<std::vector<std::pair<Vertex, Dist>>> lists(n);
      std::vector<std::vector<std::pair<Vertex, Dist>>> pair_adj(net.size());

      for (std::uint32_t idx = 0; idx < net.size(); ++idx) {
        const Vertex x = net[idx];
        search.run(x, radius, [&](Vertex v, Dist d) {
          lists[v].emplace_back(x, d);
          if (all_pairs && d > 0 && d <= lambda && v > x && rank[v] != kNone) {
            pair_adj[idx].emplace_back(v, d);
          }
        });
      }

      // H_i: the virtual pairs (all-pairs levels) plus, at the lowest
      // level, the real graph edges among the level's net points with their
      // true weights; the decoder admits those on the fault check alone. A
      // real edge is always usable, even when heavier than λ or than the
      // current shortest path (which a fault may sever).
      const bool lowest = i == params.min_level();
      std::vector<std::uint32_t> row_begin(static_cast<std::size_t>(n) + 1);
      std::vector<LevelEdge> entries;
      for (Vertex x = 0; x < n; ++x) {
        row_begin[x] = static_cast<std::uint32_t>(entries.size());
        const std::uint32_t rx = rank[x];
        if (rx == kNone) continue;
        if (all_pairs) {
          for (const auto& [y, d] : pair_adj[rx]) {
            entries.push_back(LevelEdge::make(y, d, false));
          }
        }
        if (lowest) {
          for (const auto& arc : g.arcs(x)) {
            if (arc.to > x && rank[arc.to] != kNone) {
              entries.push_back(LevelEdge::make(arc.to, real_weight(arc), true));
            }
          }
        }
      }
      row_begin[n] = static_cast<std::uint32_t>(entries.size());
      store.set_level_graph(i, std::move(row_begin), std::move(entries));

      std::vector<Vertex> points;
      std::vector<Dist> dists;
      LevelLabel ll;
      for (Vertex v = 0; v < n; ++v) {
        points.assign(1, v);
        dists.assign(1, 0);
        for (const auto& [x, d] : lists[v]) {
          if (x == v) continue;
          points.push_back(x);
          dists.push_back(d);
        }
        lists[v].clear();
        lists[v].shrink_to_fit();
        std::vector<LevelEdge> owner_edges;
        if (all_pairs) {
          for (std::uint32_t k = 1; k < points.size(); ++k) {
            if (dists[k] <= lambda) {
              owner_edges.push_back(LevelEdge::make(k, dists[k], false));
            }
          }
        }
        if (lowest) {
          for (const auto& arc : g.arcs(v)) {
            const auto it =
                std::lower_bound(points.begin() + 1, points.end(), arc.to);
            if (it != points.end() && *it == arc.to) {
              owner_edges.push_back(LevelEdge::make(
                  static_cast<std::uint32_t>(it - points.begin()),
                  real_weight(arc), true));
            }
          }
        }
        store.append_hub(i, points, dists, std::move(owner_edges));

        // Encode the level graph as listed from the store (canonical order).
        const LevelView view = store.level_view(v, i);
        ll.points = points;
        ll.dists = dists;
        ll.edges.clear();
        view.for_each_edge([&](std::uint32_t a, std::uint32_t b, Dist w,
                               bool graph_edge) {
          ll.edges.push_back({a, b, w, graph_edge});
        });
        encode_level(ll, v, scheme.vertex_bits_, scheme.labels_[v],
                     options.codec);
      }
    }
    for (auto& w : scheme.labels_) w.shrink_to_fit();
    scheme.store_ = std::make_shared<const LevelGraphStore>(std::move(store));
    return scheme;
  }
};

ForbiddenSetLabeling build_weighted_labeling(const WeightedGraph& g,
                                             const SchemeParams& params,
                                             const BuildOptions& options) {
  return WeightedLabelingBuilder::build(g, params, options);
}

}  // namespace fsdl
