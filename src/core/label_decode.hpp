// The one label-bit parser, shared by the two in-memory forms a label is
// decoded into: a VertexLabel (decode_label, core/label.cpp) and a
// single-label LevelGraphStore (LevelGraphStore::decode,
// core/level_store.cpp). A router decodes every fetched label straight into
// the store form, so it never builds the VertexLabel only to copy it.
//
// Labels arrive from files and the wire, so nothing is trusted: a level,
// point or edge count the unread bits cannot hold is rejected before any
// allocation is sized from it, and so is an edge without a < b < |points|;
// both throw std::runtime_error. Bits that end mid-field throw
// std::out_of_range (from BitReader).
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/label.hpp"
#include "util/bitstream.hpp"
#include "util/types.hpp"

namespace fsdl::detail {

[[noreturn]] inline void label_corrupt(const char* what) {
  throw std::runtime_error(std::string("label corrupt (") + what + ")");
}

/// Rejects `count` items of at least `min_bits` each that the unread rest
/// of the label cannot hold — before anything is sized from the count.
inline void check_label_count(std::uint64_t count, std::size_t min_bits,
                              const BitReader& in, const char* what) {
  if (count > in.remaining() / min_bits) label_corrupt(what);
}

/// Parses one label (the layout encode_label writes), calling on `out`:
///   header(owner, owner_net_level, min_level, top_level);
///   per level, in order: points(points, dists) with points[0] the owner
///   (spans valid for the call), edges(count), edge(a, b, w, graph_edge)
///   once per edge in stored order, each with a < b < |points| checked,
///   and end_level().
template <typename Out>
void parse_label(BitReader& in, unsigned vertex_bits, LabelCodec codec,
                 Out& out) {
  const auto owner = static_cast<Vertex>(in.read_bits(vertex_bits));
  const auto owner_net_level = static_cast<unsigned>(in.read_gamma0());
  const auto min_level = static_cast<unsigned>(in.read_gamma0());
  // Each level costs at least two bits: its point and edge counts.
  const std::uint64_t span = in.read_gamma0();
  check_label_count(span + 1, 2, in, "level count exceeds label size");
  if (span > std::numeric_limits<unsigned>::max() - min_level) {
    label_corrupt("level range overflows");
  }
  out.header(owner, owner_net_level, min_level,
             min_level + static_cast<unsigned>(span));
  // Per extra point: a fixed-width id (classic) or a gamma gap (delta),
  // plus a gamma distance. Per edge: gamma a, gamma b, gamma w, flag bit.
  const std::size_t point_bits =
      codec == LabelCodec::kClassic ? std::size_t{vertex_bits} + 1 : 2;
  std::vector<Vertex> points;
  std::vector<Dist> dists;
  for (std::uint64_t level = 0; level <= span; ++level) {
    const std::uint64_t extra_points = in.read_gamma0();
    check_label_count(extra_points, point_bits, in,
                      "point count exceeds label size");
    const std::size_t num_points = extra_points + 1;
    points.resize(num_points);
    dists.resize(num_points);
    points[0] = owner;
    dists[0] = 0;
    if (codec == LabelCodec::kClassic) {
      for (std::size_t k = 1; k < num_points; ++k) {
        points[k] = static_cast<Vertex>(in.read_bits(vertex_bits));
        dists[k] = static_cast<Dist>(in.read_gamma());
      }
    } else {
      Vertex prev = 0;
      for (std::size_t k = 1; k < num_points; ++k) {
        const auto gap = static_cast<Vertex>(in.read_gamma());
        prev = k == 1 ? gap - 1 : prev + gap;
        points[k] = prev;
        dists[k] = static_cast<Dist>(in.read_gamma());
      }
    }
    out.points(points, dists);
    const std::uint64_t num_edges = in.read_gamma0();
    check_label_count(num_edges, 4, in, "edge count exceeds label size");
    out.edges(static_cast<std::size_t>(num_edges));
    std::uint32_t prev_a = 0, prev_b = 0;
    for (std::uint64_t e = 0; e < num_edges; ++e) {
      std::uint32_t a, b;
      if (codec == LabelCodec::kClassic) {
        a = static_cast<std::uint32_t>(in.read_gamma0());
        b = static_cast<std::uint32_t>(in.read_gamma0());
      } else {
        const auto da = static_cast<std::uint32_t>(in.read_gamma0());
        const auto db = static_cast<std::uint32_t>(in.read_gamma0());
        a = prev_a + da;
        b = da == 0 ? prev_b + db : db;
        prev_a = a;
        prev_b = b;
      }
      const auto w = static_cast<Dist>(in.read_gamma());
      const bool graph_edge = in.read_bits(1) != 0;
      if (a >= b || b >= num_points) label_corrupt("edge endpoint index");
      out.edge(a, b, w, graph_edge);
    }
    out.end_level();
  }
}

}  // namespace fsdl::detail
