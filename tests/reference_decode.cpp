#include "reference_decode.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/dijkstra.hpp"
#include "graph/fault_view.hpp"
#include "util/timer.hpp"

namespace fsdl::reference {
namespace {

/// Index of the nearest net point (slot >= 1) in a level list, or 0 if the
/// list has no net points.
std::uint32_t nearest_point_slot(const LevelLabel& ll) {
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

void decode_edges_delta(std::vector<SketchEdge>& edges, BitReader& in) {
  std::uint32_t prev_a = 0, prev_b = 0;
  for (SketchEdge& e : edges) {
    const auto da = static_cast<std::uint32_t>(in.read_gamma0());
    const auto db = static_cast<std::uint32_t>(in.read_gamma0());
    e.a = prev_a + da;
    e.b = da == 0 ? prev_b + db : db;
    e.w = static_cast<Dist>(in.read_gamma());
    e.graph_edge = in.read_bits(1) != 0;
    prev_a = e.a;
    prev_b = e.b;
  }
}

}  // namespace

std::uint64_t BitReader::read_bits(unsigned width) {
  if (width > 64) throw std::invalid_argument("BitReader: width > 64");
  if (width == 0) return 0;
  if (pos_ + width > bit_size_) throw std::out_of_range("BitReader: past end");

  const std::size_t word_index = pos_ / 64;
  const unsigned offset = static_cast<unsigned>(pos_ % 64);
  std::uint64_t value = (*words_)[word_index] >> offset;
  if (offset + width > 64) {
    value |= (*words_)[word_index + 1] << (64 - offset);
  }
  pos_ += width;
  if (width < 64) value &= (std::uint64_t{1} << width) - 1;
  return value;
}

std::uint64_t BitReader::read_gamma() {
  unsigned zeros = 0;
  while (read_bits(1) == 0) {
    ++zeros;
    if (zeros > 64) throw std::runtime_error("gamma code corrupt");
  }
  const std::uint64_t low = zeros == 0 ? 0 : read_bits(zeros);
  return (std::uint64_t{1} << zeros) | low;
}

VertexLabel decode_label(BitReader& in, unsigned vertex_bits,
                         LabelCodec codec) {
  VertexLabel label;
  label.owner = static_cast<Vertex>(in.read_bits(vertex_bits));
  label.owner_net_level = static_cast<unsigned>(in.read_gamma0());
  label.min_level = static_cast<unsigned>(in.read_gamma0());
  label.top_level = label.min_level + static_cast<unsigned>(in.read_gamma0());
  label.levels.resize(label.top_level - label.min_level + 1);
  for (LevelLabel& ll : label.levels) {
    const std::size_t num_points = in.read_gamma0() + 1;
    ll.points.resize(num_points);
    ll.dists.resize(num_points);
    ll.points[0] = label.owner;
    ll.dists[0] = 0;
    if (codec == LabelCodec::kClassic) {
      for (std::size_t k = 1; k < num_points; ++k) {
        ll.points[k] = static_cast<Vertex>(in.read_bits(vertex_bits));
        ll.dists[k] = static_cast<Dist>(in.read_gamma());
      }
    } else {
      Vertex prev = 0;
      for (std::size_t k = 1; k < num_points; ++k) {
        const auto gap = static_cast<Vertex>(in.read_gamma());
        prev = k == 1 ? gap - 1 : prev + gap;
        ll.points[k] = prev;
        ll.dists[k] = static_cast<Dist>(in.read_gamma());
      }
    }
    const std::size_t num_edges = in.read_gamma0();
    ll.edges.resize(num_edges);
    if (codec == LabelCodec::kClassic) {
      for (SketchEdge& e : ll.edges) {
        e.a = static_cast<std::uint32_t>(in.read_gamma0());
        e.b = static_cast<std::uint32_t>(in.read_gamma0());
        e.w = static_cast<Dist>(in.read_gamma());
        e.graph_edge = in.read_bits(1) != 0;
      }
    } else {
      decode_edges_delta(ll.edges, in);
    }
  }
  return label;
}

PreparedFaults::PreparedFaults(
    const SchemeParams& params,
    std::vector<const VertexLabel*> fault_vertices,
    std::vector<std::pair<const VertexLabel*, const VertexLabel*>> fault_edges)
    : params_(params) {
  const WallTimer prepare_timer;
  {
    std::vector<Vertex> faulty;
    faulty.reserve(fault_vertices.size());
    for (const VertexLabel* f : fault_vertices) faulty.push_back(f->owner);
    faulty_vertices_ = SortedSet<Vertex>(std::move(faulty));
  }
  {
    std::vector<std::uint64_t> keys;
    keys.reserve(fault_edges.size());
    for (const auto& [a, b] : fault_edges) {
      keys.push_back(FaultSet::edge_key(a->owner, b->owner));
    }
    faulty_edges_ = SortedSet<std::uint64_t>(std::move(keys));
  }

  // Protected-ball centers: forbidden vertices plus both endpoints of every
  // forbidden edge (the latter are ball centers but remain usable vertices).
  auto add_center = [&](const VertexLabel* l) {
    for (const VertexLabel* seen : centers_) {
      if (seen->owner == l->owner) return;
    }
    centers_.push_back(l);
  };
  for (const VertexLabel* f : fault_vertices) add_center(f);
  for (const auto& [a, b] : fault_edges) {
    add_center(a);
    add_center(b);
  }
  {
    std::vector<Vertex> owners;
    owners.reserve(centers_.size());
    for (const VertexLabel* c : centers_) owners.push_back(c->owner);
    center_owners_ = SortedSet<Vertex>(std::move(owners));
  }
  if (centers_.empty()) {
    prepare_us_ = prepare_timer.elapsed_us();
    return;
  }

  min_level_ = centers_.front()->min_level;
  top_level_ = centers_.front()->top_level;
  levels_.resize(top_level_ - min_level_ + 1);
  std::vector<std::pair<Vertex, Dist>> entries;
  for (unsigned i = min_level_; i <= top_level_; ++i) {
    auto& tables = levels_[i - min_level_];
    tables.pb.reserve(centers_.size());
    for (std::size_t k = 0; k < centers_.size(); ++k) {
      const LevelLabel& ll = centers_[k]->level(i);
      entries.clear();
      entries.reserve(ll.points.size());
      for (std::size_t j = 0; j < ll.points.size(); ++j) {
        entries.emplace_back(ll.points[j], ll.dists[j]);  // slot 0: d = 0
      }
      tables.pb.emplace_back(entries);
    }
  }

  // The fault labels' own edge contributions do not depend on (s, t):
  // filter them once and snapshot the survivors for query() to seed from.
  EdgeAccumulator& edges = edge_scratch();
  edges.clear();
  for (const VertexLabel* center : centers_) {
    for (unsigned i = min_level_; i <= top_level_; ++i) {
      filter_label_edges(*center, i, edges, prepare_stats_);
    }
  }
  center_edges_ = edges.entries();
  prepare_us_ = prepare_timer.elapsed_us();
}

void PreparedFaults::filter_label_edges(const VertexLabel& label, unsigned i,
                                        EdgeAccumulator& edges,
                                        QueryStats& stats) const {
  const LevelLabel& ll = label.level(i);
  const Dist lambda = params_.lambda(i);
  const Dist radius = params_.r(i);
  const unsigned q = params_.net_level(i);
  const unsigned min_level = label.min_level;

  // Owner triangulation anchor: nearest net point of this level list.
  const std::uint32_t anchor = nearest_point_slot(ll);
  const bool owner_in_nq = label.owner_net_level >= q || q == 0;
  const auto* tables =
      levels_.empty() ? nullptr : &levels_[i - min_level_];

  // Certify endpoint `slot` outside PB_i(center k).
  auto certified_out = [&](std::uint32_t slot, std::size_t k) -> bool {
    ++stats.pb_checks;
    const Vertex u = ll.points[slot];
    const FlatDistMap& pb = tables->pb[k];
    const bool in_nq = slot != 0 || owner_in_nq;
    if (in_nq) {
      const Dist* d = pb.find(u);
      return d == nullptr || *d > lambda;
    }
    // Owner below net level: triangulate through the nearest net point.
    if (anchor == 0) return false;
    const Vertex m = ll.points[anchor];
    const Dist d_um = ll.dists[anchor];
    const Dist* d = pb.find(m);
    const Dist d_mf_lb = d == nullptr ? radius + 1 : *d;
    return d_mf_lb > d_um && d_mf_lb - d_um > lambda;
  };

  for (const SketchEdge& e : ll.edges) {
    ++stats.edges_considered;
    const Vertex x = ll.points[e.a];
    const Vertex y = ll.points[e.b];
    if (i == min_level && e.graph_edge) {
      // Lowest-level rule: real graph edges survive iff neither endpoint
      // nor the edge itself is forbidden.
      if (!vertex_faulty(x) && !vertex_faulty(y) &&
          (faulty_edges_.empty() ||
           !faulty_edges_.contains(FaultSet::edge_key(x, y)))) {
        edges.keep_min(FaultSet::edge_key(x, y), e.w);
      }
      continue;
    }
    bool survives = true;
    for (std::size_t k = 0; k < centers_.size() && survives; ++k) {
      survives = certified_out(e.a, k) || certified_out(e.b, k);
    }
    if (survives) edges.keep_min(FaultSet::edge_key(x, y), e.w);
  }
}

QueryResult PreparedFaults::query(const VertexLabel& source,
                                  const VertexLabel& target) const {
  QueryResult result;
  result.stats = prepare_stats_;

  if (vertex_faulty(source.owner) || vertex_faulty(target.owner)) {
    return result;  // endpoints forbidden: unreachable by definition
  }
  if (source.owner == target.owner) {
    result.distance = 0;
    result.waypoints = {source.owner};
    return result;
  }

  const WallTimer assemble_timer;
  SketchGraph& h = sketch_scratch();
  h.clear();
  {
    // Seed from the prepared center contributions, then add the two
    // endpoint labels' survivors. Both scratch structures retain capacity
    // across queries, so this loop allocates nothing in steady state.
    EdgeAccumulator& edges = edge_scratch();
    edges.clear();
    edges.reserve(center_edges_.size());
    for (const auto& [key, w] : center_edges_) edges.keep_min(key, w);
    for (const VertexLabel* l : {&source, &target}) {
      if (center_owners_.contains(l->owner)) continue;  // already contributed
      for (unsigned i = l->min_level; i <= l->top_level; ++i) {
        filter_label_edges(*l, i, edges, result.stats);
      }
    }

    h.reserve(edges.size() + 2);
    h.intern(source.owner);
    h.intern(target.owner);
    for (const auto& [key, w] : edges.entries()) {
      const Vertex x = static_cast<Vertex>(key >> 32);
      const Vertex y = static_cast<Vertex>(key & 0xffffffffu);
      h.add_edge(h.intern(x), h.intern(y), w);
    }
    result.stats.sketch_vertices = h.num_vertices();
    result.stats.sketch_edges = h.num_edges();
  }
  result.stats.assemble_us = assemble_timer.elapsed_us();

  const WallTimer dijkstra_timer;
  std::vector<SketchGraph::Index> path;
  result.distance =
      sketch_shortest_path(h, h.find(source.owner), h.find(target.owner),
                           &path, &result.stats.dijkstra_relaxations);
  result.stats.dijkstra_us = dijkstra_timer.elapsed_us();

  if (result.distance != kInfDist) {
    result.waypoints.reserve(path.size());
    for (const auto idx : path) {
      result.waypoints.push_back(h.external_id(idx));
    }
  }
  return result;
}

QueryResult decode_query(const SchemeParams& params, const QueryInput& in) {
  const PreparedFaults prepared(params, in.fault_vertices, in.fault_edges);
  return prepared.query(*in.source, *in.target);
}

}  // namespace fsdl::reference
