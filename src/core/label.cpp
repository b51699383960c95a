#include "core/label.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/label_decode.hpp"

namespace fsdl {
namespace {

void encode_edges_classic(const std::vector<SketchEdge>& edges,
                          BitWriter& out) {
  out.write_gamma0(edges.size());
  for (const SketchEdge& e : edges) {
    out.write_gamma0(e.a);
    out.write_gamma0(e.b);
    out.write_gamma(e.w);
    out.write_bits(e.graph_edge ? 1 : 0, 1);
  }
}

/// Canonical level-edge order: (a, b, graph_edge, w). The builders emit it
/// (owner edges, a = 0, come first), so both codecs decode to one order.
bool canonical_less(const SketchEdge& x, const SketchEdge& y) {
  if (x.a != y.a) return x.a < y.a;
  if (x.b != y.b) return x.b < y.b;
  if (x.graph_edge != y.graph_edge) return !x.graph_edge;
  return x.w < y.w;
}

void encode_edges_delta(std::vector<SketchEdge> edges, BitWriter& out) {
  if (!std::is_sorted(edges.begin(), edges.end(), canonical_less)) {
    std::sort(edges.begin(), edges.end(), canonical_less);
  }
  out.write_gamma0(edges.size());
  std::uint32_t prev_a = 0, prev_b = 0;
  for (const SketchEdge& e : edges) {
    const std::uint32_t da = e.a - prev_a;
    out.write_gamma0(da);
    // b resets to absolute when a advances; gaps can be 0 (a graph edge may
    // duplicate a virtual pair), so gamma0 throughout.
    out.write_gamma0(da == 0 ? e.b - prev_b : e.b);
    out.write_gamma(e.w);
    out.write_bits(e.graph_edge ? 1 : 0, 1);
    prev_a = e.a;
    prev_b = e.b;
  }
}

}  // namespace

void encode_label_header(Vertex owner, unsigned owner_net_level,
                         unsigned min_level, unsigned top_level,
                         unsigned vertex_bits, BitWriter& out) {
  out.write_bits(owner, vertex_bits);
  out.write_gamma0(owner_net_level);
  out.write_gamma0(min_level);
  out.write_gamma0(top_level - min_level);
}

void encode_level(const LevelLabel& level, Vertex owner, unsigned vertex_bits,
                  BitWriter& out, LabelCodec codec) {
  if (level.points.empty() || level.points[0] != owner ||
      level.dists[0] != 0) {
    throw std::logic_error("encode_level: malformed level (owner slot)");
  }
  out.write_gamma0(level.points.size() - 1);
  if (codec == LabelCodec::kClassic) {
    for (std::size_t k = 1; k < level.points.size(); ++k) {
      out.write_bits(level.points[k], vertex_bits);
      out.write_gamma(level.dists[k]);  // distinct vertices → dist >= 1
    }
    encode_edges_classic(level.edges, out);
    return;
  }
  // kDelta: points[1..] are strictly increasing; code the gaps.
  Vertex prev = 0;
  for (std::size_t k = 1; k < level.points.size(); ++k) {
    const Vertex p = level.points[k];
    if (k > 1 && p <= prev) {
      throw std::logic_error("encode_level: kDelta needs sorted points");
    }
    out.write_gamma(k == 1 ? static_cast<std::uint64_t>(p) + 1
                           : static_cast<std::uint64_t>(p - prev));
    out.write_gamma(level.dists[k]);
    prev = p;
  }
  encode_edges_delta(level.edges, out);
}

void encode_label(const VertexLabel& label, unsigned vertex_bits,
                  BitWriter& out, LabelCodec codec) {
  if (label.levels.size() != label.top_level - label.min_level + 1) {
    throw std::logic_error("encode_label: level count mismatch");
  }
  encode_label_header(label.owner, label.owner_net_level, label.min_level,
                      label.top_level, vertex_bits, out);
  for (const LevelLabel& ll : label.levels) {
    encode_level(ll, label.owner, vertex_bits, out, codec);
  }
}

namespace {

/// parse_label output that assembles a VertexLabel.
struct VertexLabelOut {
  VertexLabel label;

  void header(Vertex owner, unsigned owner_net_level, unsigned min_level,
              unsigned top_level) {
    label.owner = owner;
    label.owner_net_level = owner_net_level;
    label.min_level = min_level;
    label.top_level = top_level;
    label.levels.reserve(top_level - min_level + 1);
  }
  void points(const std::vector<Vertex>& points,
              const std::vector<Dist>& dists) {
    LevelLabel& ll = label.levels.emplace_back();
    ll.points = points;
    ll.dists = dists;
  }
  void edges(std::size_t count) { label.levels.back().edges.reserve(count); }
  void edge(std::uint32_t a, std::uint32_t b, Dist w, bool graph_edge) {
    label.levels.back().edges.push_back({a, b, w, graph_edge});
  }
  void end_level() {}
};

}  // namespace

VertexLabel decode_label(BitReader& in, unsigned vertex_bits,
                         LabelCodec codec) {
  VertexLabelOut out;
  detail::parse_label(in, vertex_bits, codec, out);
  return std::move(out.label);
}

}  // namespace fsdl
