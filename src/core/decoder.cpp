#include "core/decoder.hpp"

#include <algorithm>
#include <bit>
#include <utility>

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

/// d(owner, m) from a level list: 0 for the owner (slot 0), the listed
/// distance for a net point (points[1..] are sorted by id), else `absent`.
Dist listed_dist(const LevelView& ll, Vertex m, Dist absent) {
  if (ll.points[0] == m) return 0;
  const auto net = ll.points.subspan(1);
  const auto it = std::lower_bound(net.begin(), net.end(), m);
  if (it == net.end() || *it != m) return absent;
  return ll.dists[1 + static_cast<std::size_t>(it - net.begin())];
}

/// Whether two W-word masks share a bit.
bool masks_meet(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t words) {
  std::uint64_t shared = 0;
  for (std::size_t k = 0; k < words; ++k) shared |= a[k] & b[k];
  return shared != 0;
}

constexpr std::size_t kNoBit = ~std::size_t{0};

/// The lowest bit set in both W-word masks, or kNoBit.
std::size_t lowest_common_bit(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) {
  for (std::size_t k = 0; k < words; ++k) {
    if (const std::uint64_t both = a[k] & b[k]; both != 0) {
      return k * 64 + static_cast<std::size_t>(std::countr_zero(both));
    }
  }
  return kNoBit;
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

/// Per-thread scratch of the union walk (PreparedFaults construction).
struct WalkScratch {
  /// Vertex x -> tag | its index in `points` while x is a union point of
  /// the level being walked.
  detail::SlotStamps stamps;
  /// Union points in first-seen order.
  std::vector<Vertex> points;
  /// One bit per vertex id, set for the union points of the level being
  /// walked and cleared again as the walk visits them in increasing id.
  std::vector<std::uint64_t> present;
  /// W words per union point: its membership word (bit k: a non-owner
  /// point of center k) and its in_ball mask.
  std::vector<std::uint64_t> member;
  std::vector<std::uint64_t> ball;
  /// W words: the owner mask of the center being listed.
  std::vector<std::uint64_t> owner;
  /// The centers' views of the level being walked.
  std::vector<LevelView> views;
  /// by_center[k]: the surviving edges (key, w) whose first listing label
  /// is center k's, in walk order.
  std::vector<std::vector<std::pair<std::uint64_t, Dist>>> by_center;
};

WalkScratch& walk_scratch() {
  static thread_local WalkScratch scratch;
  return scratch;
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
    in_ball_.resize(top_level_ - min_level_ + 1);
  }
  // The union walk needs one H_i keyed by vertex id under every center.
  bool shared = !centers_.empty();
  std::vector<std::pair<Vertex, std::uint32_t>> bits;
  for (std::size_t li = 0; li < in_ball_.size(); ++li) {
    const unsigned i = min_level_ + static_cast<unsigned>(li);
    const Dist lambda = params_.lambda(i);
    const LevelView first = centers_.front().level(i);
    bits.clear();
    for (std::size_t k = 0; k < centers_.size(); ++k) {
      const LevelView ll = centers_[k].level(i);
      shared = shared && ll.shares_level_graph(first);
      for (std::size_t j = 0; j < ll.points.size(); ++j) {
        if (ll.dists[j] <= lambda) {  // slot 0: d = 0
          bits.emplace_back(ll.points[j], static_cast<std::uint32_t>(k));
        }
      }
    }
    in_ball_[li] = FlatMaskMap(words_, bits);
  }

  // The fault labels' own edge contributions do not depend on (s, t):
  // filter them once and snapshot the survivors for query() to seed from.
  if (shared) {
    prepare_by_union_walk();
  } else {
    // Labels from different stores, or single-label stores (the router's
    // label cache): filter each label on its own. Once the router holds
    // H_i (ROADMAP item 12) every caller shares a store and this goes.
    EdgeAccumulator& edges = edge_scratch();
    edges.clear();
    for (const LabelView& center : centers_) {
      for (unsigned i = min_level_; i <= top_level_; ++i) {
        filter_label_edges(center, i, edges, prepare_stats_);
      }
    }
    center_edges_ = edges.entries();
  }
  prepare_us_ = prepare_timer.elapsed_us();
  FSDL_COUNT(kEdgesConsidered, prepare_stats_.edges_considered);
  FSDL_COUNT(kSafeEdgeChecks, prepare_stats_.pb_checks);
}

void PreparedFaults::prepare_by_union_walk() {
  WalkScratch& ws = walk_scratch();
  const std::size_t words = words_;
  const Vertex universe = centers_.front().level(min_level_).universe();
  ws.by_center.resize(std::max(ws.by_center.size(), centers_.size()));
  for (std::size_t k = 0; k < centers_.size(); ++k) ws.by_center[k].clear();
  ws.owner.resize(words);
  std::vector<LevelView>& views = ws.views;
  views.resize(centers_.size());
  std::size_t considered = 0;
  for (unsigned i = min_level_; i <= top_level_; ++i) {
    const FlatMaskMap& ball_map = in_ball(i);
    const bool lowest_level = i == min_level_;

    // Union points: each non-owner point of any center, with its
    // membership word and its ball mask (one lookup per union point).
    const std::uint64_t tag = ws.stamps.begin(universe);
    std::uint64_t* const slot = ws.stamps.data();
    const auto is_union_point = [&](Vertex x) {
      return (slot[x] & ~std::uint64_t{0xffffffffu}) == tag;
    };
    const auto index_of = [&](Vertex x) {
      return static_cast<std::uint32_t>(slot[x]);
    };
    ws.points.clear();
    ws.member.clear();
    ws.present.resize((universe + 63) / 64, 0);
    Vertex last = 0;
    for (std::size_t k = 0; k < centers_.size(); ++k) {
      views[k] = centers_[k].level(i);
      const auto points = views[k].points;
      for (std::size_t a = 1; a < points.size(); ++a) {
        const Vertex x = points[a];
        if (!is_union_point(x)) {
          slot[x] = tag | ws.points.size();
          ws.points.push_back(x);
          ws.member.resize(ws.member.size() + words, 0);
          ws.present[x / 64] |= std::uint64_t{1} << (x % 64);
          last = std::max(last, x);
        }
        ws.member[index_of(x) * words + k / 64] |= std::uint64_t{1}
                                                   << (k % 64);
      }
    }
    ws.ball.assign(ws.points.size() * words, 0);
    for (std::size_t u = 0; u < ws.points.size(); ++u) {
      ++prepare_stats_.pb_checks;
      if (const std::uint64_t* m = ball_map.find(ws.points[u])) {
        std::copy_n(m, words, ws.ball.data() + u * words);
      }
    }

    // Owner edges, per center: slot 0's mask may be triangulated.
    for (std::size_t k = 0; k < centers_.size(); ++k) {
      const LevelView& ll = views[k];
      const Vertex owner = ll.points[0];
      owner_mask(centers_[k], ll, i, ws.owner.data(), prepare_stats_);
      for (const LevelEdge& e : ll.owner_edges) {
        ++considered;
        const Vertex y = ll.points[e.to];
        const bool survives =
            lowest_level && e.graph_edge()
                ? graph_edge_survives(owner, y)
                : !masks_meet(ws.owner.data(),
                              ws.ball.data() + index_of(y) * words, words);
        if (survives) {
          ws.by_center[k].emplace_back(FaultSet::edge_key(owner, y), e.w());
        }
      }
    }

    // Pair edges: each H_i entry among union points once, in (x, row
    // position) order. Center k lists (x, y) iff both are its non-owner
    // points, i.e. iff bit k is set in both membership words; the lowest
    // such k lists it first.
    const auto walk_row = [&](Vertex x) {
      const std::uint32_t ux = index_of(x);
      const std::uint64_t* const mx = ws.member.data() + ux * words;
      const std::uint64_t* const bx = ws.ball.data() + ux * words;
      for (const LevelEdge& e : views.front().level_graph_row(x)) {
        if (e.to > last) break;  // rows are sorted by endpoint
        ++considered;
        if (!is_union_point(e.to)) continue;
        const std::uint32_t uy = index_of(e.to);
        const std::size_t first =
            lowest_common_bit(mx, ws.member.data() + uy * words, words);
        if (first == kNoBit) continue;  // no label lists this entry
        const bool survives =
            lowest_level && e.graph_edge()
                ? graph_edge_survives(x, e.to)
                : !masks_meet(bx, ws.ball.data() + uy * words, words);
        if (survives) {
          ws.by_center[first].emplace_back(FaultSet::edge_key(x, e.to), e.w());
        }
      }
    };
    if (ws.points.empty()) continue;
    // Union points in increasing id: set bits of `present`, cleared as read.
    for (std::size_t w = 0; w <= last / 64; ++w) {
      for (std::uint64_t bits = std::exchange(ws.present[w], 0); bits != 0;
           bits &= bits - 1) {
        walk_row(static_cast<Vertex>(w * 64 + std::countr_zero(bits)));
      }
    }
  }
  prepare_stats_.edges_considered += considered;

  // The walk visits edges in (level, owners then pairs, x, row position)
  // order. Bucketing each survivor under the first center to list it is a
  // stable counting sort into the per-label scan's order (center, level,
  // canonical edge order), so keep_min inserts every key where that scan
  // first did.
  EdgeAccumulator& edges = edge_scratch();
  edges.clear();
  for (std::size_t k = 0; k < centers_.size(); ++k) {
    for (const auto& [key, w] : ws.by_center[k]) edges.keep_min(key, w);
  }
  center_edges_ = edges.entries();
}

bool PreparedFaults::graph_edge_survives(Vertex x, Vertex y) const {
  return !vertex_faulty(x) && !vertex_faulty(y) &&
         (faulty_edges_.empty() ||
          !faulty_edges_.contains(FaultSet::edge_key(x, y)));
}

const FlatMaskMap& PreparedFaults::in_ball(unsigned i) const {
  static const FlatMaskMap kNoCenters;
  return in_ball_.empty() ? kNoCenters : in_ball_[i - min_level_];
}

std::size_t PreparedFaults::bytes() const noexcept {
  std::size_t total = sizeof(*this) + centers_.capacity() * sizeof(LabelView) +
                      center_owners_.bytes() + faulty_vertices_.bytes() +
                      faulty_edges_.bytes() +
                      in_ball_.capacity() * sizeof(FlatMaskMap) +
                      center_edges_.capacity() * sizeof(center_edges_[0]);
  for (const FlatMaskMap& m : in_ball_) total += m.bytes();
  return total;
}

void PreparedFaults::owner_mask(const LabelView& label, const LevelView& ll,
                                unsigned i, std::uint64_t* mask,
                                QueryStats& stats) const {
  const std::size_t words = words_;
  std::fill_n(mask, words, 0);
  const unsigned q = params_.net_level(i);
  if (label.owner_net_level() >= q || q == 0) {
    // Owner ∈ N_{i-c-1}: exact — in the ball iff listed at d <= λ_i.
    ++stats.pb_checks;
    if (const std::uint64_t* m = in_ball(i).find(ll.points[0])) {
      std::copy_n(m, words, mask);
    }
    return;
  }
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
      const Dist d_mf_lb =
          listed_dist(centers_[k].level(i), ll.points[anchor], radius + 1);
      out = d_mf_lb > d_um && d_mf_lb - d_um > lambda;
    }
    if (!out) mask[k / 64] |= std::uint64_t{1} << (k % 64);
  }
}

void PreparedFaults::filter_label_edges(const LabelView& label, unsigned i,
                                        EdgeAccumulator& edges,
                                        QueryStats& stats) const {
  const LevelView ll = label.level(i);
  const FlatMaskMap& ball_map = in_ball(i);
  const std::size_t words = words_;

  // masks[j·W ..]: bit k set iff slot j is not certified outside
  // PB_i(center k).
  std::vector<std::uint64_t>& masks = mask_scratch();
  masks.assign(ll.points.size() * words, 0);
  owner_mask(label, ll, i, masks.data(), stats);
  for (std::uint32_t j = 1; j < ll.points.size(); ++j) {
    // u ∈ N_{i-c-1}: exact — u is in the ball iff listed at d <= λ_i.
    ++stats.pb_checks;
    if (const std::uint64_t* m = ball_map.find(ll.points[j])) {
      std::copy_n(m, words, masks.data() + j * words);
    }
  }

  const bool lowest_level = i == label.min_level();
  std::size_t considered = 0;
  ll.for_each_edge([&](std::uint32_t a, std::uint32_t b, Dist w,
                       bool graph_edge) {
    ++considered;
    if (lowest_level && graph_edge) {
      const Vertex x = ll.points[a];
      const Vertex y = ll.points[b];
      if (graph_edge_survives(x, y)) {
        edges.keep_min(FaultSet::edge_key(x, y), w);
      }
      return;
    }
    // Survives iff no center's ball holds both endpoints.
    if (!masks_meet(masks.data() + a * words, masks.data() + b * words,
                    words)) {
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
