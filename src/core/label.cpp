#include "core/label.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

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

void encode_edges_delta(std::vector<SketchEdge> edges, BitWriter& out) {
  std::sort(edges.begin(), edges.end(),
            [](const SketchEdge& x, const SketchEdge& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
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

[[noreturn]] void corrupt(const char* what) {
  throw std::runtime_error(std::string("label corrupt (") + what + ")");
}

/// Rejects `count` items of at least `min_bits` each that the unread rest
/// of the label cannot hold — before anything is sized from the count.
void check_count(std::uint64_t count, std::size_t min_bits,
                 const BitReader& in, const char* what) {
  if (count > in.remaining() / min_bits) corrupt(what);
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

VertexLabel decode_label(BitReader& in, unsigned vertex_bits,
                         LabelCodec codec) {
  VertexLabel label;
  label.owner = static_cast<Vertex>(in.read_bits(vertex_bits));
  label.owner_net_level = static_cast<unsigned>(in.read_gamma0());
  label.min_level = static_cast<unsigned>(in.read_gamma0());
  // Each level costs at least two bits: its point and edge counts.
  const std::uint64_t span = in.read_gamma0();
  check_count(span + 1, 2, in, "level count exceeds label size");
  if (span > std::numeric_limits<unsigned>::max() - label.min_level) {
    corrupt("level range overflows");
  }
  label.top_level = label.min_level + static_cast<unsigned>(span);
  label.levels.resize(span + 1);
  // Per extra point: a fixed-width id (classic) or a gamma gap (delta),
  // plus a gamma distance. Per edge: gamma a, gamma b, gamma w, flag bit.
  const std::size_t point_bits =
      codec == LabelCodec::kClassic ? std::size_t{vertex_bits} + 1 : 2;
  for (LevelLabel& ll : label.levels) {
    const std::uint64_t extra_points = in.read_gamma0();
    check_count(extra_points, point_bits, in, "point count exceeds label size");
    const std::size_t num_points = extra_points + 1;
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
    const std::uint64_t num_edges = in.read_gamma0();
    check_count(num_edges, 4, in, "edge count exceeds label size");
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
    for (const SketchEdge& e : ll.edges) {
      if (e.a >= e.b || e.b >= num_points) corrupt("edge endpoint index");
    }
  }
  return label;
}

}  // namespace fsdl
