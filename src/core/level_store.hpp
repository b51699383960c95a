// LevelGraphStore — the in-memory form every answering path reads labels
// from.
//
// Paper §2.1 builds L(v)'s level-i graph from one global graph per level:
// H_i, the pairs (x, y) of net points of N_{i-c-1} with d_G(x, y) <= λ_i.
// The level-i graph of L(v) is its owner edges (v, x) plus the induced
// subgraph H_i[P_i(v) \ {v}], where P_i(v) = N_{i-c-1} ∩ B(v, r_i). A table
// of decoded labels repeats every H_i entry once per label that holds both
// endpoints (20–58× at n ≈ 120–240, EXPERIMENTS E4 table E4f). This store
// keeps each H_i once and each label as its hub list:
//   - per level, H_i as a CSR indexed by vertex id: row x holds the entries
//     (y > x, w, graph-edge bit) in canonical (y, graph_edge, w) order;
//   - per label and level, P_i(v) with distances (the owner at slot 0, then
//     the net points in increasing id order) and the owner edges.
// Its size is Σ|H_i| + Σ|P_i(v)| rather than n × label length. Under the
// compact preset the lowest level's H is G's own edges among its net
// points; under the weighted builder it holds both the virtual and the real
// entries.
//
// Canonical edge order. LevelView::for_each_edge lists a label's level
// edges as its owner edges in stored order, then, for each slot a >= 1 in
// order, the H_i row of points[a] kept to entries whose endpoint lies in
// P_i(v) and is not the owner. With sorted points and rows that is
// (a, b, graph_edge, w) order, which is also the order both builders encode
// (under either codec). So a label read from a store and the same label
// decoded from its bits list the same edges in the same sequence, and the
// decoder's sketch (insertion order, Dijkstra ties, waypoints) does not
// depend on which of the two it read.
//
// Where stores come from:
//   - ForbiddenSetLabeling::build and build_weighted_labeling write one
//     straight from their level passes;
//   - ShardStore::split gives each piece the full H_i plus its own labels;
//   - from_labeling rebuilds one from decoded labels (files, merges) and
//     rejects a labeling whose labels are not all induced subgraphs of one
//     H_i per level;
//   - decode(bits) builds a single-label store straight from one label's
//     bits (the router's label cache). Its H_i rows are keyed by the label's
//     own slots and hold exactly its pair edges, so its size and decode time
//     are O(label), whatever the labeling's vertex count.
//
// A store is immutable once built; any number of threads may read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/label.hpp"
#include "util/bitstream.hpp"
#include "util/types.hpp"

namespace fsdl {

class ForbiddenSetLabeling;
class LevelGraphStore;

/// One H_i row entry (`to` = the neighbour y) or one owner edge (`to` = the
/// slot of its far endpoint), with the weight and graph-edge bit packed into
/// one word. Weights are below 2^31.
struct LevelEdge {
  std::uint32_t to = 0;
  std::uint32_t packed = 0;  // w << 1 | graph_edge

  static constexpr Dist kMaxWeight = (Dist{1} << 31) - 1;

  static LevelEdge make(std::uint32_t to, Dist w, bool graph_edge) noexcept {
    return {to, (w << 1) | (graph_edge ? 1u : 0u)};
  }
  Dist w() const noexcept { return packed >> 1; }
  bool graph_edge() const noexcept { return (packed & 1u) != 0; }

  bool operator==(const LevelEdge&) const = default;
  /// Canonical order: by endpoint, then graph-edge bit, then weight.
  bool operator<(const LevelEdge& o) const noexcept { return key() < o.key(); }

 private:
  std::uint64_t key() const noexcept {
    return (std::uint64_t{to} << 32) | ((packed & 1u) << 31) | (packed >> 1);
  }
};

namespace detail {

/// Per-thread slot stamps for LevelView::for_each_edge: entry x holds
/// epoch << 32 | slot while x is a member of the level being listed, so
/// starting a new level is one epoch bump instead of a clear.
class SlotStamps {
 public:
  /// Starts a listing over vertex ids below `universe`; returns the tag
  /// (epoch << 32) that marks this listing's members.
  std::uint64_t begin(std::size_t universe);
  std::uint64_t* data() noexcept { return stamps_.data(); }

 private:
  std::vector<std::uint64_t> stamps_;
  std::uint32_t epoch_ = 0;
};

/// This thread's stamps.
SlotStamps& slot_stamps();

}  // namespace detail

/// One label's level-i graph, read from a store.
class LevelView {
 public:
  /// points[0] is the label owner; points[1..] are the net points of
  /// P_i(v) in increasing id order. dists[k] = d_G(owner, points[k]).
  std::span<const Vertex> points;
  std::span<const Dist> dists;
  /// Owner edges (owner, points[e.to]).
  std::span<const LevelEdge> owner_edges;

  /// Calls emit(a, b, w, graph_edge) for every edge (points[a], points[b])
  /// of this level graph, in canonical order: the owner edges (a = 0), then
  /// the pair edges. `emit` must not list another level itself: the slot
  /// stamps are per thread.
  template <typename Emit>
  void for_each_edge(Emit&& emit) const;

  /// Whether this view and `other` read their pair edges from one H_i keyed
  /// by vertex id: the same level of the same store, not single-label
  /// stores.
  bool shares_level_graph(const LevelView& other) const noexcept {
    return !slot_rows_ && !other.slot_rows_ && row_begin_ == other.row_begin_ &&
           entries_ == other.entries_ && universe_ == other.universe_;
  }
  /// Row x of that H_i: the entries (y > x) in canonical order. Only for a
  /// view whose rows are keyed by vertex id, with x below universe().
  std::span<const LevelEdge> level_graph_row(Vertex x) const noexcept {
    if (row_begin_ == nullptr) return {};
    return {entries_ + row_begin_[x], entries_ + row_begin_[x + 1]};
  }
  /// Vertex ids are below this bound.
  Vertex universe() const noexcept { return universe_; }

 private:
  friend class LevelGraphStore;

  const std::uint32_t* row_begin_ = nullptr;
  const LevelEdge* entries_ = nullptr;
  /// Vertex ids are below this bound (the store's num_vertices).
  Vertex universe_ = 0;
  /// Rows are keyed by this label's slots and hold only its own pair edges
  /// (`to` = the slot of the far end): a single-label store.
  bool slot_rows_ = false;
};

/// One vertex's label, read from a store. A small value: copy it freely;
/// the store it points into must outlive it.
class LabelView {
 public:
  LabelView() = default;

  Vertex owner() const noexcept;
  /// Largest j with owner ∈ N_j.
  unsigned owner_net_level() const noexcept;
  unsigned min_level() const noexcept;
  unsigned top_level() const noexcept;
  bool has_level(unsigned i) const noexcept {
    return i >= min_level() && i <= top_level();
  }
  /// Level i's graph; throws std::out_of_range outside the level range.
  LevelView level(unsigned i) const;

  /// The decoded form: same points, distances, and edges in the same order
  /// as the label's bits decode to.
  VertexLabel materialize() const;

 private:
  friend class LevelGraphStore;
  LabelView(const LevelGraphStore* store, std::uint32_t index) noexcept
      : store_(store), index_(index) {}

  const LevelGraphStore* store_ = nullptr;
  std::uint32_t index_ = 0;
};

class LevelGraphStore {
 public:
  LevelGraphStore() = default;
  /// An empty store over vertex ids < num_vertices and levels
  /// [min_level, top_level]; the builders fill it level by level.
  LevelGraphStore(Vertex num_vertices, unsigned min_level, unsigned top_level);

  /// Rebuilds the store of a labeling from its decoded labels (a file, a
  /// merge). Throws std::runtime_error when a label is malformed (owner,
  /// level range, unsorted or out-of-range points, a weight >= 2^31, an
  /// edge listed twice, two labels that disagree on a level edge's weight)
  /// or when a label's pair edges are not exactly H_i[P_i(v) \ {v}] of the
  /// union H_i; std::out_of_range when a label's bits end mid-field.
  static LevelGraphStore from_labeling(const ForbiddenSetLabeling& scheme);

  /// A single-label store decoded straight from a label's bits (the
  /// router's GET_LABEL replies); its H_i is the label's own pair edges,
  /// keyed by slot. Checks, beyond decode_label's: the label spans exactly
  /// levels [min_level, top_level] (checked before any level is read), its
  /// owner and point ids are below num_vertices, its net points are in
  /// increasing order and exclude the owner, and its weights are below
  /// 2^31. Throws std::runtime_error on a failed check and
  /// std::out_of_range on bits that end mid-field.
  static LevelGraphStore decode(BitReader& in, unsigned vertex_bits,
                                LabelCodec codec, Vertex num_vertices,
                                unsigned min_level, unsigned top_level);

  /// A copy with every H_i but only the labels of the vertices `keep` holds
  /// true for (a shard piece).
  template <typename Keep>
  LevelGraphStore subset(Keep&& keep) const;

  Vertex num_vertices() const noexcept { return n_; }
  unsigned min_level() const noexcept { return min_level_; }
  unsigned top_level() const noexcept { return top_level_; }
  std::size_t num_labels() const noexcept { return owners_.size(); }

  bool has_label(Vertex v) const noexcept {
    if (slot_rows_) return owners_.front() == v;
    return v < index_of_.size() && index_of_[v] != kNoLabel;
  }
  /// v's label; throws std::out_of_range when the store does not hold it.
  LabelView label(Vertex v) const;

  /// Heap bytes held (the fsdl_label_store_bytes gauge).
  std::size_t bytes() const noexcept;

  bool operator==(const LevelGraphStore&) const = default;

  // --- Writing (builders, from_labeling, subset) ---

  /// Registers v's label; labels take indices in call order.
  void add_label(Vertex v, unsigned owner_net_level);

  /// Installs H_i: row x is entries[row_begin[x] .. row_begin[x + 1]) for
  /// x < num_vertices, each entry's `to` above x and below num_vertices.
  /// Rows are sorted into canonical order here.
  void set_level_graph(unsigned i, std::vector<std::uint32_t> row_begin,
                       std::vector<LevelEdge> entries);

  /// Appends the next label's level-i hub list (labels in index order):
  /// `points` and `dists` start with the owner at distance 0; owner edges
  /// are sorted into canonical order here.
  void append_hub(unsigned i, std::span<const Vertex> points,
                  std::span<const Dist> dists,
                  std::vector<LevelEdge> owner_edges);

  /// Label `index`'s level i (i in range), whatever its vertex.
  LevelView level_view(std::uint32_t index, unsigned i) const noexcept;

 private:
  friend class LabelView;
  class SingleLabelOut;
  static constexpr std::uint32_t kNoLabel = ~std::uint32_t{0};

  struct Level {
    /// H_i; empty row_begin means the level has no rows yet.
    std::vector<std::uint32_t> row_begin;
    std::vector<LevelEdge> entries;
    /// Hub lists, label i's in [point_begin[i], point_begin[i + 1]).
    std::vector<std::uint32_t> point_begin{0};
    std::vector<Vertex> points;
    std::vector<Dist> dists;
    std::vector<std::uint32_t> owner_begin{0};
    std::vector<LevelEdge> owner_edges;

    bool operator==(const Level&) const = default;
  };

  Vertex n_ = 0;
  unsigned min_level_ = 0;
  unsigned top_level_ = 0;
  std::vector<Level> levels_;
  std::vector<Vertex> owners_;
  std::vector<std::uint32_t> owner_net_level_;
  /// Vertex -> label index, or kNoLabel; empty in a single-label store.
  std::vector<std::uint32_t> index_of_;
  /// A single-label store (decode): one label, rows keyed by its slots.
  bool slot_rows_ = false;
};

template <typename Emit>
void LevelView::for_each_edge(Emit&& emit) const {
  for (const LevelEdge& e : owner_edges) {
    emit(std::uint32_t{0}, e.to, e.w(), e.graph_edge());
  }
  const std::size_t np = points.size();
  if (np < 3 || row_begin_ == nullptr) return;  // no pair of net points
  if (slot_rows_) {
    // Row a holds exactly this label's pair edges (a, b), b > a.
    for (std::uint32_t a = 1; a < np; ++a) {
      const LevelEdge* const end = entries_ + row_begin_[a + 1];
      for (const LevelEdge* e = entries_ + row_begin_[a]; e != end; ++e) {
        emit(a, e->to, e->w(), e->graph_edge());
      }
    }
    return;
  }
  detail::SlotStamps& stamps = detail::slot_stamps();
  const std::uint64_t tag = stamps.begin(universe_);
  std::uint64_t* slot = stamps.data();
  // The owner (slot 0) is never stamped: its edges are the owner edges.
  for (std::uint32_t a = 1; a < np; ++a) slot[points[a]] = tag | a;
  // Rows are sorted by endpoint, and no member lies above the last point.
  const Vertex last = points[np - 1];
  for (std::uint32_t a = 1; a < np; ++a) {
    const Vertex x = points[a];
    const LevelEdge* e = entries_ + row_begin_[x];
    const LevelEdge* const end = entries_ + row_begin_[x + 1];
    for (; e != end && e->to <= last; ++e) {
      const std::uint64_t s = slot[e->to];
      if ((s & ~std::uint64_t{0xffffffffu}) == tag) {
        emit(a, static_cast<std::uint32_t>(s), e->w(), e->graph_edge());
      }
    }
  }
}

template <typename Keep>
LevelGraphStore LevelGraphStore::subset(Keep&& keep) const {
  LevelGraphStore out(n_, min_level_, top_level_);
  std::vector<std::uint32_t> kept;
  for (std::uint32_t l = 0; l < owners_.size(); ++l) {
    if (!keep(owners_[l])) continue;
    kept.push_back(l);
    out.add_label(owners_[l], owner_net_level_[l]);
  }
  for (std::size_t li = 0; li < levels_.size(); ++li) {
    const unsigned i = min_level_ + static_cast<unsigned>(li);
    out.levels_[li].row_begin = levels_[li].row_begin;
    out.levels_[li].entries = levels_[li].entries;
    for (const std::uint32_t l : kept) {
      const LevelView lv = level_view(l, i);
      out.append_hub(i, lv.points, lv.dists,
                     {lv.owner_edges.begin(), lv.owner_edges.end()});
    }
  }
  return out;
}

}  // namespace fsdl
