// Label structures and their bit-level serialization.
//
// A vertex label L(v) is the list of its per-level graphs H_i(v)
// (paper §2.1): for each level i in I, the net points N_{i-c-1} ∩ B(v, r_i)
// with their distances from v, and the short virtual edges (weight =
// d_G(x, y) <= λ_i) among those points and between v and those points.
//
// Labels are stored serialized; label length is reported as the exact bit
// count of this encoding (Lemma 2.5 is about bits, so we measure bits).
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitstream.hpp"
#include "util/types.hpp"

namespace fsdl {

/// One virtual edge inside a level graph; a and b index LevelLabel::points.
struct SketchEdge {
  std::uint32_t a;
  std::uint32_t b;
  Dist w;
  /// True for actual edges of G (the lowest-level rule admits these on a
  /// fault check alone, with no protected-ball certificate). For unweighted
  /// graphs this coincides with w == 1; the weighted extension needs the
  /// explicit flag.
  bool graph_edge = false;
};

/// H_i(v) for one level i.
struct LevelLabel {
  /// points[0] is always the label owner v; the rest are the net points of
  /// N_{i-c-1} ∩ B(v, r_i) in increasing id order (owner not repeated).
  std::vector<Vertex> points;
  /// dists[k] = d_G(v, points[k]); dists[0] == 0.
  std::vector<Dist> dists;
  /// Virtual edges with weight d_G(x, y) <= λ_i, endpoints as indices into
  /// `points`, a < b.
  std::vector<SketchEdge> edges;
};

/// Complete label of one vertex.
struct VertexLabel {
  Vertex owner = kNoVertex;
  /// Largest j with owner ∈ N_j — lets the decoder certify the owner's net
  /// membership when it appears as a virtual-edge endpoint.
  unsigned owner_net_level = 0;
  unsigned min_level = 0;
  unsigned top_level = 0;
  /// levels[k] corresponds to level min_level + k.
  std::vector<LevelLabel> levels;

  const LevelLabel& level(unsigned i) const {
    return levels.at(i - min_level);
  }
  bool has_level(unsigned i) const noexcept {
    return i >= min_level && i <= top_level;
  }
};

/// Label wire format.
///  - kClassic: fixed ⌈log₂ n⌉-bit point ids (the paper's accounting) and
///    absolute edge endpoints.
///  - kDelta: point ids gamma-coded as gaps of the sorted list; edges
///    in canonical order and delta-coded. Same information, fewer bits;
///    measured in experiment E4.
enum class LabelCodec : std::uint8_t { kClassic = 0, kDelta = 1 };

/// Serialize; `vertex_bits` = bits per vertex id (⌈log₂ n⌉, fixed width as
/// in the paper's accounting).
void encode_label(const VertexLabel& label, unsigned vertex_bits,
                  BitWriter& out, LabelCodec codec = LabelCodec::kClassic);

/// Incremental encoding: the builder streams one level at a time into each
/// vertex's bit buffer, so whole decoded labels never sit in memory at once.
/// Field order matches encode_label exactly.
void encode_label_header(Vertex owner, unsigned owner_net_level,
                         unsigned min_level, unsigned top_level,
                         unsigned vertex_bits, BitWriter& out);
/// kDelta requires level.points[1..] in increasing id order (the builders
/// guarantee this) and writes the edges in canonical (a, b, graph_edge, w)
/// order, sorting a copy when they arrive in another. kClassic writes them
/// as given; the builders give canonical order, so a label decodes to the
/// same edge sequence under either codec.
void encode_level(const LevelLabel& level, Vertex owner, unsigned vertex_bits,
                  BitWriter& out, LabelCodec codec = LabelCodec::kClassic);

/// Inverse of encode_label. Labels arrive from files and the wire, so
/// nothing is trusted: a level, point or edge count the unread bits cannot
/// hold is rejected before any allocation is sized from it, and so is an
/// edge without a < b < |points|; both throw std::runtime_error. Bits that
/// end mid-field throw std::out_of_range (from BitReader).
VertexLabel decode_label(BitReader& in, unsigned vertex_bits,
                         LabelCodec codec = LabelCodec::kClassic);

}  // namespace fsdl
