#include "core/level_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/label_decode.hpp"
#include "core/labeling.hpp"

namespace fsdl {
namespace detail {

std::uint64_t SlotStamps::begin(std::size_t universe) {
  if (stamps_.size() < universe) stamps_.resize(universe);
  if (++epoch_ == 0) {  // wrapped: stale stamps could match the new tag
    std::fill(stamps_.begin(), stamps_.end(), 0);
    epoch_ = 1;
  }
  return std::uint64_t{epoch_} << 32;
}

SlotStamps& slot_stamps() {
  static thread_local SlotStamps stamps;
  return stamps;
}

}  // namespace detail

namespace {

/// Union of the pair edges the labels of one level list, keyed on
/// (x, y, graph_edge). Open addressing over a flat slot array; each entry
/// remembers the last listing (label level) that added it, so a listing
/// that names one edge twice is caught.
class EdgeUnion {
 public:
  enum class Add { kOk, kRepeat, kWeightConflict };

  Add add(Vertex x, Vertex y, std::uint32_t packed, std::uint32_t listing) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot* s = probe(x, y, packed & 1u);
    if (s->x == kNoVertex) {
      *s = {x, y, packed, listing};
      ++size_;
      return Add::kOk;
    }
    if (s->packed != packed) return Add::kWeightConflict;
    if (s->listing == listing) return Add::kRepeat;
    s->listing = listing;
    return Add::kOk;
  }

  /// The union as a CSR over vertex ids < n (rows unsorted).
  void to_csr(Vertex n, std::vector<std::uint32_t>& row_begin,
              std::vector<LevelEdge>& entries) const {
    row_begin.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const Slot& s : slots_) {
      if (s.x != kNoVertex) ++row_begin[s.x + 1];
    }
    for (Vertex x = 0; x < n; ++x) row_begin[x + 1] += row_begin[x];
    entries.assign(size_, LevelEdge{});
    std::vector<std::uint32_t> fill(row_begin.begin(), row_begin.end() - 1);
    for (const Slot& s : slots_) {
      if (s.x != kNoVertex) entries[fill[s.x]++] = {s.y, s.packed};
    }
  }

 private:
  struct Slot {
    Vertex x = kNoVertex;
    Vertex y = 0;
    std::uint32_t packed = 0;
    std::uint32_t listing = 0;
  };

  Slot* probe(Vertex x, Vertex y, std::uint32_t graph_edge) {
    std::uint64_t h = ((std::uint64_t{x} << 32) | y) * 0x9e3779b97f4a7c15ull;
    h ^= graph_edge * 0xc2b2ae3d27d4eb4full;
    h ^= h >> 29;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(h) & mask;;
         i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.x == kNoVertex ||
          (s.x == x && s.y == y && (s.packed & 1u) == graph_edge)) {
        return &s;
      }
    }
  }

  void grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(std::max<std::size_t>(64, old.size() * 2), Slot{});
    for (const Slot& s : old) {
      if (s.x != kNoVertex) *probe(s.x, s.y, s.packed & 1u) = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

[[noreturn]] void reject(Vertex v, const std::string& why) {
  throw std::runtime_error("labeling rejected: label of vertex " +
                           std::to_string(v) + " " + why);
}

template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Sorts each CSR row into canonical order (a no-op on canonical rows).
void sort_rows(const std::vector<std::uint32_t>& row_begin,
               std::vector<LevelEdge>& entries) {
  for (std::size_t x = 0; x + 1 < row_begin.size(); ++x) {
    const auto first = entries.begin() + row_begin[x];
    const auto last = entries.begin() + row_begin[x + 1];
    if (!std::is_sorted(first, last)) std::sort(first, last);
  }
}

}  // namespace

LevelGraphStore::LevelGraphStore(Vertex num_vertices, unsigned min_level,
                                 unsigned top_level)
    : n_(num_vertices),
      min_level_(min_level),
      top_level_(top_level),
      levels_(top_level >= min_level ? top_level - min_level + 1 : 0),
      index_of_(num_vertices, kNoLabel) {}

void LevelGraphStore::add_label(Vertex v, unsigned owner_net_level) {
  if (v >= n_ || index_of_[v] != kNoLabel) {
    throw std::logic_error("LevelGraphStore::add_label: bad or repeated vertex");
  }
  index_of_[v] = static_cast<std::uint32_t>(owners_.size());
  owners_.push_back(v);
  owner_net_level_.push_back(owner_net_level);
}

void LevelGraphStore::set_level_graph(unsigned i,
                                      std::vector<std::uint32_t> row_begin,
                                      std::vector<LevelEdge> entries) {
  if (row_begin.size() != static_cast<std::size_t>(n_) + 1 ||
      row_begin.back() != entries.size()) {
    throw std::logic_error("LevelGraphStore::set_level_graph: bad rows");
  }
  sort_rows(row_begin, entries);
  Level& level = levels_.at(i - min_level_);
  level.row_begin = std::move(row_begin);
  level.entries = std::move(entries);
}

void LevelGraphStore::append_hub(unsigned i, std::span<const Vertex> points,
                                 std::span<const Dist> dists,
                                 std::vector<LevelEdge> owner_edges) {
  Level& level = levels_.at(i - min_level_);
  if (points.empty() || points.size() != dists.size() ||
      level.point_begin.size() > owners_.size()) {
    throw std::logic_error("LevelGraphStore::append_hub: bad hub list");
  }
  if (!std::is_sorted(owner_edges.begin(), owner_edges.end())) {
    std::sort(owner_edges.begin(), owner_edges.end());
  }
  level.points.insert(level.points.end(), points.begin(), points.end());
  level.dists.insert(level.dists.end(), dists.begin(), dists.end());
  level.owner_edges.insert(level.owner_edges.end(), owner_edges.begin(),
                           owner_edges.end());
  level.point_begin.push_back(static_cast<std::uint32_t>(level.points.size()));
  level.owner_begin.push_back(
      static_cast<std::uint32_t>(level.owner_edges.size()));
}

LevelView LevelGraphStore::level_view(std::uint32_t index,
                                      unsigned i) const noexcept {
  const Level& level = levels_[i - min_level_];
  const std::uint32_t p0 = level.point_begin[index];
  const std::uint32_t p1 = level.point_begin[index + 1];
  const std::uint32_t o0 = level.owner_begin[index];
  const std::uint32_t o1 = level.owner_begin[index + 1];
  LevelView view;
  view.points = {level.points.data() + p0, p1 - p0};
  view.dists = {level.dists.data() + p0, p1 - p0};
  view.owner_edges = {level.owner_edges.data() + o0, o1 - o0};
  view.row_begin_ = level.row_begin.empty() ? nullptr : level.row_begin.data();
  view.entries_ = level.entries.data();
  view.universe_ = n_;
  view.slot_rows_ = slot_rows_;
  return view;
}

LabelView LevelGraphStore::label(Vertex v) const {
  if (!has_label(v)) {
    throw std::out_of_range("label store holds no label of vertex " +
                            std::to_string(v));
  }
  return LabelView(this, slot_rows_ ? 0 : index_of_[v]);
}

std::size_t LevelGraphStore::bytes() const noexcept {
  std::size_t total = sizeof(*this) + heap_bytes(levels_) +
                      heap_bytes(owners_) + heap_bytes(owner_net_level_) +
                      heap_bytes(index_of_);
  for (const Level& l : levels_) {
    total += heap_bytes(l.row_begin) + heap_bytes(l.entries) +
             heap_bytes(l.point_begin) + heap_bytes(l.points) +
             heap_bytes(l.dists) + heap_bytes(l.owner_begin) +
             heap_bytes(l.owner_edges);
  }
  return total;
}

LevelGraphStore LevelGraphStore::from_labeling(
    const ForbiddenSetLabeling& scheme) {
  const Vertex n = scheme.num_vertices();
  const unsigned lo = scheme.min_level();
  const unsigned hi = scheme.top_level();
  LevelGraphStore store(n, lo, hi);
  const std::size_t num_levels = store.levels_.size();
  std::vector<EdgeUnion> unions(num_levels);
  // pairs[li][l]: how many pair edges label l lists at level li.
  std::vector<std::vector<std::uint32_t>> pairs(num_levels);
  std::uint32_t listing = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (!scheme.stores_label(v)) continue;
    const VertexLabel label = scheme.label(v);
    if (label.owner != v) reject(v, "names another owner");
    if (label.min_level != lo || label.top_level != hi) {
      reject(v, "has the wrong level range");
    }
    store.add_label(v, label.owner_net_level);
    for (std::size_t li = 0; li < num_levels; ++li) {
      const LevelLabel& ll = label.levels[li];
      for (std::size_t k = 1; k < ll.points.size(); ++k) {
        const Vertex p = ll.points[k];
        if (p >= n || p == v || (k > 1 && p <= ll.points[k - 1])) {
          reject(v, "lists points out of order or out of range");
        }
      }
      ++listing;
      std::vector<LevelEdge> owner_edges;
      std::uint32_t count = 0;
      for (const SketchEdge& e : ll.edges) {
        if (e.w > LevelEdge::kMaxWeight) reject(v, "has an edge weight >= 2^31");
        const LevelEdge packed = LevelEdge::make(e.b, e.w, e.graph_edge);
        if (e.a == 0) {
          owner_edges.push_back(packed);
          continue;
        }
        ++count;
        switch (unions[li].add(ll.points[e.a], ll.points[e.b], packed.packed,
                               listing)) {
          case EdgeUnion::Add::kOk:
            break;
          case EdgeUnion::Add::kRepeat:
            reject(v, "lists a level edge twice");
          case EdgeUnion::Add::kWeightConflict:
            reject(v, "disagrees with another label on a level edge weight");
        }
      }
      pairs[li].push_back(count);
      store.append_hub(lo + static_cast<unsigned>(li), ll.points, ll.dists,
                       std::move(owner_edges));
    }
  }
  for (std::size_t li = 0; li < num_levels; ++li) {
    std::vector<std::uint32_t> row_begin;
    std::vector<LevelEdge> entries;
    unions[li].to_csr(n, row_begin, entries);
    store.set_level_graph(lo + static_cast<unsigned>(li), std::move(row_begin),
                          std::move(entries));
  }
  // Exactness: every listed pair edge is in the union H_i, and none is
  // listed twice, so equal counts mean the label holds all of
  // H_i[P_i(v) \ {v}].
  for (std::uint32_t l = 0; l < store.owners_.size(); ++l) {
    for (std::size_t li = 0; li < num_levels; ++li) {
      const unsigned i = lo + static_cast<unsigned>(li);
      std::uint32_t induced = 0;
      store.level_view(l, i).for_each_edge(
          [&](std::uint32_t a, std::uint32_t, Dist, bool) {
            if (a != 0) ++induced;
          });
      if (induced != pairs[li][l]) {
        reject(store.owners_[l],
               "is not an induced subgraph of level " + std::to_string(i) +
                   "'s graph (it lists " + std::to_string(pairs[li][l]) +
                   " pair edges; H_i holds " + std::to_string(induced) +
                   " among its points)");
      }
    }
  }
  return store;
}

/// parse_label output that builds a single-label store: rows keyed by the
/// label's slots, each holding the label's pair edges (a, b) as `to` = b.
/// Everything it allocates is sized by what the label's bits back.
class LevelGraphStore::SingleLabelOut {
 public:
  SingleLabelOut(Vertex num_vertices, unsigned min_level, unsigned top_level)
      : n_(num_vertices), min_level_(min_level), top_level_(top_level) {}

  void header(Vertex owner, unsigned owner_net_level, unsigned min_level,
              unsigned top_level) {
    if (owner >= n_) throw std::runtime_error("label corrupt (owner id)");
    if (min_level != min_level_ || top_level != top_level_) {
      throw std::runtime_error("label corrupt (level range)");
    }
    store_.n_ = n_;
    store_.min_level_ = min_level;
    store_.top_level_ = top_level;
    store_.levels_.resize(top_level - min_level + 1);
    store_.owners_ = {owner};
    store_.owner_net_level_ = {owner_net_level};
    store_.slot_rows_ = true;
    level_ = min_level;
  }
  void points(std::span<const Vertex> points, std::span<const Dist> dists) {
    for (std::size_t k = 1; k < points.size(); ++k) {
      if (points[k] >= n_ || points[k] == points[0] ||
          (k > 1 && points[k] <= points[k - 1])) {
        throw std::runtime_error(
            "label corrupt (points out of order or out of range)");
      }
    }
    points_.assign(points.begin(), points.end());
    dists_.assign(dists.begin(), dists.end());
    row_begin_.assign(points.size() + 1, 0);
    owner_edges_.clear();
    rows_.clear();
    entries_.clear();
    grouped_ = true;
    sorted_ = true;
    last_row_ = 0;
  }
  void edges(std::size_t count) { entries_.reserve(count); }
  void edge(std::uint32_t a, std::uint32_t b, Dist w, bool graph_edge) {
    if (w > LevelEdge::kMaxWeight) {
      throw std::runtime_error("label corrupt (edge weight >= 2^31)");
    }
    if (a == 0) {
      owner_edges_.push_back(LevelEdge::make(b, w, graph_edge));
      return;
    }
    if (grouped_ && a < last_row_) {
      // The first pair edge out of row order: from here on each entry's row
      // is kept, starting with those read so far (row r holds
      // row_begin_[r + 1] of them, in row order).
      grouped_ = false;
      for (std::uint32_t r = 1; r + 1 < row_begin_.size(); ++r) {
        rows_.insert(rows_.end(), row_begin_[r + 1], r);
      }
    }
    const LevelEdge entry = LevelEdge::make(b, w, graph_edge);
    if (a == last_row_ && !entries_.empty() && entry < entries_.back()) {
      sorted_ = false;
    }
    last_row_ = a;
    if (!grouped_) rows_.push_back(a);
    ++row_begin_[a + 1];
    entries_.push_back(entry);
  }
  void end_level() {
    for (std::size_t a = 0; a + 1 < row_begin_.size(); ++a) {
      row_begin_[a + 1] += row_begin_[a];
    }
    Level& level = store_.levels_[level_ - min_level_];
    // A canonical label lists its pair edges row by row, each row sorted,
    // so `entries_` is the CSR already; any other order is placed by a
    // counting sort and sorted row by row.
    if (grouped_) {
      level.entries = std::move(entries_);
      entries_.clear();
    } else {
      level.entries.resize(entries_.size());
      std::vector<std::uint32_t> fill(row_begin_.begin(), row_begin_.end() - 1);
      for (std::size_t k = 0; k < entries_.size(); ++k) {
        level.entries[fill[rows_[k]]++] = entries_[k];
      }
    }
    level.row_begin = row_begin_;
    if (!grouped_ || !sorted_) sort_rows(level.row_begin, level.entries);
    store_.append_hub(level_, points_, dists_, owner_edges_);
    ++level_;
  }

  LevelGraphStore take() { return std::move(store_); }

 private:
  Vertex n_;
  unsigned min_level_;
  unsigned top_level_;
  LevelGraphStore store_;
  unsigned level_ = 0;
  // The level being read; kept across levels so their capacity is reused.
  std::vector<Vertex> points_;
  std::vector<Dist> dists_;
  std::vector<std::uint32_t> row_begin_;
  std::vector<LevelEdge> owner_edges_;
  /// Each pair edge's row, kept only once the edges leave row order.
  std::vector<std::uint32_t> rows_;
  std::vector<LevelEdge> entries_;
  bool grouped_ = true;
  /// Within each row, the entries arrived in canonical order.
  bool sorted_ = true;
  std::uint32_t last_row_ = 0;
};

LevelGraphStore LevelGraphStore::decode(BitReader& in, unsigned vertex_bits,
                                        LabelCodec codec, Vertex num_vertices,
                                        unsigned min_level,
                                        unsigned top_level) {
  SingleLabelOut out(num_vertices, min_level, top_level);
  detail::parse_label(in, vertex_bits, codec, out);
  return out.take();
}

Vertex LabelView::owner() const noexcept { return store_->owners_[index_]; }

unsigned LabelView::owner_net_level() const noexcept {
  return store_->owner_net_level_[index_];
}

unsigned LabelView::min_level() const noexcept { return store_->min_level_; }

unsigned LabelView::top_level() const noexcept { return store_->top_level_; }

LevelView LabelView::level(unsigned i) const {
  if (!has_level(i)) {
    throw std::out_of_range("label has no level " + std::to_string(i));
  }
  return store_->level_view(index_, i);
}

VertexLabel LabelView::materialize() const {
  VertexLabel out;
  out.owner = owner();
  out.owner_net_level = owner_net_level();
  out.min_level = min_level();
  out.top_level = top_level();
  for (unsigned i = out.min_level; i <= out.top_level; ++i) {
    const LevelView lv = level(i);
    LevelLabel& ll = out.levels.emplace_back();
    ll.points.assign(lv.points.begin(), lv.points.end());
    ll.dists.assign(lv.dists.begin(), lv.dists.end());
    lv.for_each_edge([&](std::uint32_t a, std::uint32_t b, Dist w, bool g) {
      ll.edges.push_back({a, b, w, g});
    });
  }
  return out;
}

}  // namespace fsdl
