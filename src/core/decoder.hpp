// Forbidden-set distance query decoder (paper §2.1, "Distance Queries").
//
// Input: labels of s, t, and every forbidden vertex/edge. The decoder
// builds the sketch graph H — per level, it keeps exactly those virtual
// edges for which it can *certify* that at least one endpoint lies outside
// every fault's protected ball PB_i(f) = B(f, λ_i) — then runs Dijkstra.
//
// Certification, per endpoint u against fault center f at level i:
//   * u ∈ N_{i-c-1} (true for every listed net point; true for an owner
//     when its recorded net level reaches i-c-1; true for everything at the
//     lowest level since N_0 = V): u is outside PB_i(f) iff u is missing
//     from f's level-i point list (then d(f,u) > r_i > λ_i) or is listed
//     with distance > λ_i. This is exact.
//   * u is an owner below its net level (typically s or t): triangulate
//     through u's nearest level-i net point M — f's list gives d(f, M)
//     exactly (or the lower bound r_i + 1 when absent), u's list gives
//     d(u, M), and d(f, u) >= d(f, M) - d(u, M) > λ_i certifies u outside.
//     The paper's analysis provides clearance d(u, F) > μ_i = λ_i + ρ_i
//     with d(u, M) < ρ_i / 2 in every case where it needs such an edge, so
//     this certificate always fires there and the (1+ε) bound is preserved.
//
// Only certified edges enter H, so every reported distance is realizable in
// G \ F regardless of parameters (Lemma 2.3 soundness, rechecked in tests).
//
// Both certificates are evaluated into bitmasks rather than per edge: for a
// label level, each slot gets a mask with bit k set iff the slot is *not*
// certified outside PB_i(center k), and an edge survives iff the masks of
// its two endpoints share no bit — exactly ∀k (out_k(a) ∨ out_k(b)). This
// is the "perfect hashing" step of Lemma 2.6 made concrete: one AND over
// ⌈|C|/64⌉ words per edge, for any number |C| of fault centers.
//
// A pair edge's survival depends only on its two net points, not on the
// label that lists it (both masks are exact in_ball lookups). So when every
// fault label reads one store's H_i, the prepare step certifies each H_i
// entry once, by walking the rows of the union of the centers' hub lists:
// a membership word per union point (bit k: a non-owner point of center k)
// says which labels list an entry, and the lowest common bit is the first
// label to list it. A stable counting sort on that center replays the
// survivors in the order the per-label scan would have inserted them, so
// the prepared edge list, Dijkstra ties and waypoints are unchanged. Owner
// edges stay per center (an owner's mask can be the triangulated one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/label.hpp"
#include "core/level_store.hpp"
#include "core/params.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace fsdl {

// Work counters + stage timings of one decode. The counters are the units
// of the paper's cost bounds (pb_checks ⇔ Lemma 2.3 certification,
// dijkstra_relaxations ⇔ Lemma 2.6's sketch search); the *_us stages let a
// caller attribute wall time to the |F|²-certification term vs. the
// (1+1/ε)^{2α} sketch term without a tracing build (tools/fsdl_trace, the
// server's slow-query log). For a PreparedFaults query the stats start from
// the construction-time counters (prepare_stats()), so a query's own share
// of a counter is its value minus prepare_stats()'s.
struct QueryStats {
  std::size_t sketch_vertices = 0;
  std::size_t sketch_edges = 0;
  /// Edges certified. A query's share: every level edge of the two endpoint
  /// labels. The prepare's share: every owner edge of the fault labels plus
  /// every H_i entry visited by the union walk (on single-label stores,
  /// every level edge of the fault labels instead).
  std::size_t edges_considered = 0;
  /// Protected-ball lookups: one mask lookup per label slot in N_{i-c-1}
  /// per level, plus |C| center-list probes per owner triangulation (an
  /// owner below its net level). The prepare's union walk looks up each
  /// union point once per level instead of once per label slot. Edge
  /// certification itself is a mask AND and is not counted here (see
  /// edges_considered).
  std::size_t pb_checks = 0;
  std::size_t dijkstra_relaxations = 0;
  /// Sketch assembly: endpoint-label filtering + building H.
  double assemble_us = 0.0;
  /// Dijkstra over H only.
  double dijkstra_us = 0.0;

  void accumulate(const QueryStats& other) {
    sketch_vertices += other.sketch_vertices;
    sketch_edges += other.sketch_edges;
    edges_considered += other.edges_considered;
    pb_checks += other.pb_checks;
    dijkstra_relaxations += other.dijkstra_relaxations;
    assemble_us += other.assemble_us;
    dijkstra_us += other.dijkstra_us;
  }
};

struct QueryResult {
  Dist distance = kInfDist;
  /// Vertex ids (in G) of one shortest sketch path s..t; each consecutive
  /// pair is a certified virtual edge. Empty when unreachable.
  std::vector<Vertex> waypoints;
  QueryStats stats;
};

/// Two-phase decoding for the paper's router scenario: a router holds one
/// fault set F and answers many (s, t) queries against it. Construction
/// performs all the |F|-dependent work once — per level, a vertex → mask
/// map of the protected balls that certifiably contain each vertex, plus
/// the filtering of every fault label's edges (the O(label·|F|²) part of
/// Lemma 2.6, at one mask AND per edge; once per H_i entry of the union
/// walk when the fault labels share a store); each query then only filters
/// the two endpoint labels and runs Dijkstra.
///
/// Labels are views over LevelGraphStores (one store, or one per label on
/// the router); the stores must outlive the PreparedFaults object. With no
/// faults it is the plain one-shot decoder.
///
/// Thread safety: construction does all the mutation; query() is const,
/// touches only immutable tables plus per-thread scratch (thread_local
/// slot masks, edge accumulator and sketch graph that keep their capacity
/// across calls, making the steady-state hot path allocation-free), and is
/// safe from any number of concurrent threads (the server's fault-set cache
/// shares one instance across its whole worker pool).
class PreparedFaults {
 public:
  PreparedFaults(const SchemeParams& params,
                 std::vector<LabelView> fault_vertices,
                 std::vector<std::pair<LabelView, LabelView>> fault_edges);

  /// The sketch-graph distance from source to target in G \ F, F the
  /// construction-time fault set.
  QueryResult query(const LabelView& source, const LabelView& target) const;

  std::size_t num_centers() const noexcept { return centers_.size(); }

  /// Wall time of the constructor — the once-per-fault-set certification
  /// cost (Lemma 2.6's quadratic term: |C| labels, one ⌈|C|/64⌉-word AND
  /// per label edge, or per H_i entry of the union walk).
  double prepare_us() const noexcept { return prepare_us_; }
  /// Counters accumulated during construction (also folded into every
  /// query's stats).
  const QueryStats& prepare_stats() const noexcept { return prepare_stats_; }

  /// The fault labels' surviving edges as (edge key, weight), in the order
  /// a per-label scan (center by center, level by level, canonical edge
  /// order) first inserts them: what every query seeds its sketch from.
  const std::vector<std::pair<std::uint64_t, Dist>>& center_edges()
      const noexcept {
    return center_edges_;
  }

  /// Heap bytes held (the prepared cache's fsdl_prepared_cache_bytes).
  std::size_t bytes() const noexcept;

 private:
  bool vertex_faulty(Vertex v) const { return faulty_vertices_.contains(v); }

  /// Lowest-level rule: a real graph edge (x, y) survives iff neither
  /// endpoint nor the edge itself is forbidden. Every other edge survives
  /// iff no center's ball holds both endpoints (disjoint masks).
  bool graph_edge_survives(Vertex x, Vertex y) const;

  /// Level i's vertex -> ball mask map; empty when there are no centers.
  const FlatMaskMap& in_ball(unsigned i) const;

  /// Writes the W-word mask of `ll`'s owner (slot 0 of `label`'s level i)
  /// to `mask`: bit k set iff the owner is not certified outside
  /// PB_i(center k).
  void owner_mask(const LabelView& label, const LevelView& ll, unsigned i,
                  std::uint64_t* mask, QueryStats& stats) const;

  /// Filter one label's level-i edges against the protected balls, merging
  /// survivors into `edges` (keyed on endpoint pair, min weight).
  void filter_label_edges(const LabelView& label, unsigned i,
                          EdgeAccumulator& edges, QueryStats& stats) const;

  /// Fills center_edges_ with one walk per level over the H_i rows of the
  /// union of the centers' hub lists. Needs every center's level views to
  /// share one H_i (shares_level_graph).
  void prepare_by_union_walk();

  SchemeParams params_;
  std::vector<LabelView> centers_;
  SortedSet<Vertex> center_owners_;
  SortedSet<Vertex> faulty_vertices_;
  SortedSet<std::uint64_t> faulty_edges_;
  /// Mask width W = ⌈|C|/64⌉ in 64-bit words (0 without centers).
  std::size_t words_ = 0;
  unsigned min_level_ = 0;
  unsigned top_level_ = 0;
  /// Indexed by level - min_level_: vertex u -> words_-word mask with bit k
  /// set iff center k's level list holds u at distance <= λ_i
  /// (u ∈ PB_i(center k)). Absent vertices lie in no ball (distance
  /// > r_i > λ_i from every center).
  std::vector<FlatMaskMap> in_ball_;
  /// Edges contributed by the fault labels themselves, already filtered —
  /// the flat snapshot every query() seeds its edge accumulator from.
  std::vector<std::pair<std::uint64_t, Dist>> center_edges_;
  QueryStats prepare_stats_;
  double prepare_us_ = 0.0;
};

}  // namespace fsdl
