#include "core/decoder.hpp"

#include <algorithm>

#include "graph/dijkstra.hpp"
#include "graph/fault_view.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace fsdl {
namespace {

/// Index of the nearest net point (slot >= 1) in a level list, or 0 if the
/// list has no net points.
std::uint32_t nearest_point_slot(const LevelView& ll) {
  std::uint32_t best = 0;
  Dist best_d = kInfDist;
  for (std::uint32_t k = 1; k < ll.points.size(); ++k) {
    if (ll.dists[k] < best_d) {
      best_d = ll.dists[k];
      best = k;
    }
  }
  return best;
}

/// Per-thread reusable scratch for the assemble stage. query() is const and
/// called concurrently from the server's worker pool, so the reuse is per
/// thread; capacity sticks across calls, so a warmed-up thread assembles
/// without heap allocation. Never borrowed across a nested call: the only
/// two users (PreparedFaults construction and query) never nest.
EdgeAccumulator& edge_scratch() {
  static thread_local EdgeAccumulator acc;
  return acc;
}

SketchGraph& sketch_scratch() {
  static thread_local SketchGraph h;
  return h;
}

/// One W-word mask per slot of the level list being filtered.
std::vector<std::uint64_t>& mask_scratch() {
  static thread_local std::vector<std::uint64_t> masks;
  return masks;
}

}  // namespace

PreparedFaults::PreparedFaults(
    const SchemeParams& params, std::vector<LabelView> fault_vertices,
    std::vector<std::pair<LabelView, LabelView>> fault_edges)
    : params_(params) {
  FSDL_SPAN("prepare");
  const WallTimer prepare_timer;
  {
    std::vector<Vertex> faulty;
    faulty.reserve(fault_vertices.size());
    for (const LabelView& f : fault_vertices) faulty.push_back(f.owner());
    faulty_vertices_ = SortedSet<Vertex>(std::move(faulty));
  }
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(fault_edges.size());
    for (const auto& [a, b] : fault_edges) {
      keys.push_back(FaultSet::edge_key(a.owner(), b.owner()));
    }
    faulty_edges_ = SortedSet<std::uint64_t>(std::move(keys));
  }

  // Protected-ball centers: forbidden vertices plus both endpoints of every
  // forbidden edge (the latter are ball centers but remain usable vertices).
  auto add_center = [&](const LabelView& l) {
    for (const LabelView& seen : centers_) {
      if (seen.owner() == l.owner()) return;
    }
    centers_.push_back(l);
  };
  for (const LabelView& f : fault_vertices) add_center(f);
  for (const auto& [a, b] : fault_edges) {
    add_center(a);
    add_center(b);
  }
  {
    std::vector<Vertex> owners;
    owners.reserve(centers_.size());
    for (const LabelView& c : centers_) owners.push_back(c.owner());
    center_owners_ = SortedSet<Vertex>(std::move(owners));
  }

  words_ = (centers_.size() + 63) / 64;
  if (!centers_.empty()) {
    min_level_ = centers_.front().min_level();
    top_level_ = centers_.front().top_level();
    levels_.resize(top_level_ - min_level_ + 1);
  }
  std::vector<std::pair<Vertex, Dist>> entries;
  std::vector<std::pair<Vertex, std::uint32_t>> in_ball;
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const unsigned i = min_level_ + static_cast<unsigned>(li);
    const Dist lambda = params_.lambda(i);
    auto& tables = levels_[li];
    tables.pb.reserve(centers_.size());
    in_ball.clear();
    for (std::size_t k = 0; k < centers_.size(); ++k) {
      const LevelView ll = centers_[k].level(i);
      entries.clear();
      entries.reserve(ll.points.size());
      for (std::size_t j = 0; j < ll.points.size(); ++j) {
        entries.emplace_back(ll.points[j], ll.dists[j]);  // slot 0: d = 0
        if (ll.dists[j] <= lambda) {
          in_ball.emplace_back(ll.points[j], static_cast<std::uint32_t>(k));
        }
      }
      tables.pb.emplace_back(entries);
    }
    tables.in_ball = FlatMaskMap(words_, in_ball);
  }

  // The fault labels' own edge contributions do not depend on (s, t):
  // filter them once and snapshot the survivors for query() to seed from.
  EdgeAccumulator& edges = edge_scratch();
  edges.clear();
  for (const LabelView& center : centers_) {
    for (unsigned i = min_level_; i <= top_level_; ++i) {
      filter_label_edges(center, i, edges, prepare_stats_);
    }
  }
  center_edges_ = edges.entries();
  prepare_us_ = prepare_timer.elapsed_us();
  FSDL_COUNT(kEdgesConsidered, prepare_stats_.edges_considered);
  FSDL_COUNT(kSafeEdgeChecks, prepare_stats_.pb_checks);
}

const PreparedFaults::LevelTables& PreparedFaults::level_tables(
    unsigned i) const {
  static const LevelTables kNoCenters;
  return levels_.empty() ? kNoCenters : levels_[i - min_level_];
}

void PreparedFaults::filter_label_edges(const LabelView& label, unsigned i,
                                        EdgeAccumulator& edges,
                                        QueryStats& stats) const {
  const LevelView ll = label.level(i);
  const LevelTables& tables = level_tables(i);
  const std::size_t words = words_;
  const unsigned q = params_.net_level(i);
  const bool owner_in_nq = label.owner_net_level() >= q || q == 0;

  // masks[j·W ..]: bit k set iff slot j is not certified outside
  // PB_i(center k).
  std::vector<std::uint64_t>& masks = mask_scratch();
  masks.assign(ll.points.size() * words, 0);
  for (std::uint32_t j = owner_in_nq ? 0 : 1; j < ll.points.size(); ++j) {
    // u ∈ N_{i-c-1}: exact — u is in the ball iff listed at d <= λ_i.
    ++stats.pb_checks;
    if (const std::uint64_t* m = tables.in_ball.find(ll.points[j])) {
      std::copy_n(m, words, masks.data() + j * words);
    }
  }
  if (!owner_in_nq) {
    // Owner below net level: triangulate through the nearest net point M;
    // d(f, u) >= d(f, M) - d(u, M) > λ_i certifies u outside PB_i(f).
    const Dist lambda = params_.lambda(i);
    const Dist radius = params_.r(i);
    const std::uint32_t anchor = nearest_point_slot(ll);
    for (std::size_t k = 0; k < centers_.size(); ++k) {
      ++stats.pb_checks;
      bool out = false;
      if (anchor != 0) {
        const Dist d_um = ll.dists[anchor];
        const Dist* d = tables.pb[k].find(ll.points[anchor]);
        const Dist d_mf_lb = d == nullptr ? radius + 1 : *d;
        out = d_mf_lb > d_um && d_mf_lb - d_um > lambda;
      }
      if (!out) masks[k / 64] |= std::uint64_t{1} << (k % 64);
    }
  }

  const bool lowest_level = i == label.min_level();
  std::size_t considered = 0;
  ll.for_each_edge([&](std::uint32_t a, std::uint32_t b, Dist w,
                       bool graph_edge) {
    ++considered;
    if (lowest_level && graph_edge) {
      // Lowest-level rule: real graph edges survive iff neither endpoint
      // nor the edge itself is forbidden.
      const Vertex x = ll.points[a];
      const Vertex y = ll.points[b];
      if (!vertex_faulty(x) && !vertex_faulty(y) &&
          (faulty_edges_.empty() ||
           !faulty_edges_.contains(FaultSet::edge_key(x, y)))) {
        edges.keep_min(FaultSet::edge_key(x, y), w);
      }
      return;
    }
    // Survives iff no center's ball holds both endpoints.
    const std::uint64_t* ma = masks.data() + a * words;
    const std::uint64_t* mb = masks.data() + b * words;
    std::uint64_t shared = 0;
    for (std::size_t k = 0; k < words; ++k) shared |= ma[k] & mb[k];
    if (shared == 0) {
      edges.keep_min(FaultSet::edge_key(ll.points[a], ll.points[b]), w);
    }
  });
  stats.edges_considered += considered;
}

QueryResult PreparedFaults::query(const LabelView& source,
                                  const LabelView& target) const {
  FSDL_SPAN("query");
  QueryResult result;
  result.stats = prepare_stats_;
  const Vertex s = source.owner();
  const Vertex t = target.owner();

  if (vertex_faulty(s) || vertex_faulty(t)) {
    return result;  // endpoints forbidden: unreachable by definition
  }
  if (s == t) {
    result.distance = 0;
    result.waypoints = {s};
    return result;
  }

  const WallTimer assemble_timer;
  SketchGraph& h = sketch_scratch();
  h.clear();
  std::size_t endpoint_pb_checks = 0;
  {
    FSDL_SPAN("assemble");
    // Seed from the prepared center contributions, then add the two
    // endpoint labels' survivors. Both scratch structures retain capacity
    // across queries, so this loop allocates nothing in steady state.
    EdgeAccumulator& edges = edge_scratch();
    edges.clear();
    edges.reserve(center_edges_.size());
    for (const auto& [key, w] : center_edges_) edges.keep_min(key, w);
    for (const LabelView* l : {&source, &target}) {
      if (center_owners_.contains(l->owner())) continue;  // already contributed
      for (unsigned i = l->min_level(); i <= l->top_level(); ++i) {
        filter_label_edges(*l, i, edges, result.stats);
      }
    }

    h.reserve(edges.size() + 2);
    h.intern(s);
    h.intern(t);
    for (const auto& [key, w] : edges.entries()) {
      const Vertex x = static_cast<Vertex>(key >> 32);
      const Vertex y = static_cast<Vertex>(key & 0xffffffffu);
      h.add_edge(h.intern(x), h.intern(y), w);
    }
    result.stats.sketch_vertices = h.num_vertices();
    result.stats.sketch_edges = h.num_edges();
    endpoint_pb_checks = result.stats.pb_checks - prepare_stats_.pb_checks;
  }
  result.stats.assemble_us = assemble_timer.elapsed_us();

  const WallTimer dijkstra_timer;
  std::vector<SketchGraph::Index> path;
  {
    FSDL_SPAN("dijkstra");
    result.distance =
        sketch_shortest_path(h, h.find(s), h.find(t),
                             &path, &result.stats.dijkstra_relaxations);
  }
  result.stats.dijkstra_us = dijkstra_timer.elapsed_us();
  FSDL_COUNT(kSketchVertices, result.stats.sketch_vertices);
  FSDL_COUNT(kSketchEdges, result.stats.sketch_edges);
  FSDL_COUNT(kEdgesConsidered,
             result.stats.edges_considered - prepare_stats_.edges_considered);
  FSDL_COUNT(kSafeEdgeChecks, endpoint_pb_checks);
  FSDL_COUNT(kDijkstraRelaxations, result.stats.dijkstra_relaxations);

  if (result.distance != kInfDist) {
    result.waypoints.reserve(path.size());
    for (const auto idx : path) {
      result.waypoints.push_back(h.external_id(idx));
    }
  }
  return result;
}

}  // namespace fsdl
