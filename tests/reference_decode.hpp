// Frozen reference decoder for differential tests.
//
// A verbatim copy of the per-center probe decoder (PreparedFaults plus the
// one-shot decode_query) as it stood before bitmask certification replaced
// its inner loop. Every edge is certified by one FlatDistMap probe per
// fault center, exactly as the paper's §2.1 rule reads. Hot-path changes to
// src/core/decoder.cpp are checked against this copy bit for bit
// (distances and waypoints), so it must not be "kept in sync" with them:
// edit it only to fix a bug that the production decoder also had.
//
// The only departure from the original is that the tracing macros are
// dropped, so the reference adds no spans or counters to a traced build.
//
// The file also freezes the label decode: BitReader and decode_label as
// they stood before word-at-a-time reads, reading one bit per step through
// a bounds-checked read_bits. The production reader and decoder must return
// field-for-field the same VertexLabel for every built label under either
// codec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/decoder.hpp"
#include "core/label.hpp"
#include "core/params.hpp"
#include "util/flat_map.hpp"

namespace fsdl::reference {

/// Bit-by-bit reader over a BitWriter's buffer.
class BitReader {
 public:
  explicit BitReader(const BitWriter& writer) noexcept
      : words_(&writer.words()), bit_size_(writer.bit_size()) {}

  std::uint64_t read_bits(unsigned width);
  std::uint64_t read_gamma();
  std::uint64_t read_gamma0() { return read_gamma() - 1; }

  std::size_t position() const noexcept { return pos_; }

 private:
  const std::vector<std::uint64_t>* words_;
  std::size_t bit_size_;
  std::size_t pos_ = 0;
};

VertexLabel decode_label(BitReader& in, unsigned vertex_bits,
                         LabelCodec codec);

/// The labels of one one-shot query.
struct QueryInput {
  const VertexLabel* source = nullptr;
  const VertexLabel* target = nullptr;
  std::vector<const VertexLabel*> fault_vertices;
  std::vector<std::pair<const VertexLabel*, const VertexLabel*>> fault_edges;
};

QueryResult decode_query(const SchemeParams& params, const QueryInput& in);

class PreparedFaults {
 public:
  PreparedFaults(
      const SchemeParams& params,
      std::vector<const VertexLabel*> fault_vertices,
      std::vector<std::pair<const VertexLabel*, const VertexLabel*>>
          fault_edges);

  QueryResult query(const VertexLabel& source, const VertexLabel& target) const;

  std::size_t num_centers() const noexcept { return centers_.size(); }
  double prepare_us() const noexcept { return prepare_us_; }

 private:
  struct LevelTables {
    std::vector<FlatDistMap> pb;
  };

  bool vertex_faulty(Vertex v) const { return faulty_vertices_.contains(v); }

  void filter_label_edges(const VertexLabel& label, unsigned i,
                          EdgeAccumulator& edges, QueryStats& stats) const;

  SchemeParams params_;
  std::vector<const VertexLabel*> centers_;
  SortedSet<Vertex> center_owners_;
  SortedSet<Vertex> faulty_vertices_;
  SortedSet<std::uint64_t> faulty_edges_;
  unsigned min_level_ = 0;
  unsigned top_level_ = 0;
  std::vector<LevelTables> levels_;
  std::vector<std::pair<std::uint64_t, Dist>> center_edges_;
  QueryStats prepare_stats_;
  double prepare_us_ = 0.0;
};

}  // namespace fsdl::reference
