// E4 — Lemma 2.5: forbidden-set label length.
//
// (a) bits vs n at fixed ε on paths (α = 1), faithful parameters — paper
//     shape: O(log² n) growth, i.e. bits / log²n flattens;
// (b) bits vs ε at fixed n — paper shape: growth like (1+1/ε)^{2α}
//     (via c(ε)); and the α-dependence: the same construction on an α = 2
//     family is orders of magnitude bigger (the 2^{O(α)} constants).
//
// Beside the bit counts, decode_us is the mean wall time to decode one
// label (Alstrup et al. treat decode time as a label metric too).
//
// (f) in-memory oracle size: the paper's "n × label length" table of
//     decoded labels against the level-graph store the oracle now reads
//     (one H_i per level plus every hub list: Σ|H_i| + Σ|P_i(v)|).
#include <algorithm>
#include <cmath>
#include <limits>

#include "bench/common.hpp"

using namespace fsdl;
using namespace fsdl::bench;

namespace {

/// Mean µs to decode one label of `scheme`: every label, best of 3 passes.
double mean_decode_us(const ForbiddenSetLabeling& scheme) {
  double best = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 3; ++pass) {
    WallTimer timer;
    for (Vertex v = 0; v < scheme.num_vertices(); ++v) (void)scheme.label(v);
    best = std::min(best, timer.elapsed_us() / scheme.num_vertices());
  }
  return best;
}

}  // namespace

int main() {
  std::cout << "E4 (Lemma 2.5): label length accounting\n";

  Table by_n({"family", "n", "levels", "mean_bits", "max_bits",
              "bits/log2n^2", "decode_us"});
  for (Vertex n : {128u, 256u, 512u, 1024u, 2048u}) {
    const Graph g = make_path(n);
    const auto scheme =
        ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
    const double l2 = std::log2(static_cast<double>(n));
    by_n.row()
        .cell("path")
        .cell(static_cast<unsigned long long>(n))
        .cell(static_cast<unsigned long long>(scheme.top_level() -
                                              scheme.min_level() + 1))
        .cell(scheme.mean_label_bits(), 0)
        .cell(static_cast<unsigned long long>(scheme.max_label_bits()))
        .cell(scheme.mean_label_bits() / (l2 * l2), 0)
        .cell(mean_decode_us(scheme), 1);
  }
  emit(by_n, "E4a: faithful label bits vs n (paths, eps=1)");

  Table by_eps(
      {"family", "n", "eps", "c", "mean_bits", "max_bits", "decode_us"});
  {
    const Graph g = make_path(512);
    for (double eps : {6.0, 3.0, 1.5, 1.0, 0.5, 0.25}) {
      const auto scheme =
          ForbiddenSetLabeling::build(g, SchemeParams::faithful(eps));
      by_eps.row()
          .cell("path")
          .cell(512ULL)
          .cell(eps, 2)
          .cell(static_cast<unsigned long long>(scheme.params().c))
          .cell(scheme.mean_label_bits(), 0)
          .cell(static_cast<unsigned long long>(scheme.max_label_bits()))
          .cell(mean_decode_us(scheme), 1);
    }
  }
  emit(by_eps, "E4b: faithful label bits vs eps (growth driven by c(eps))");

  Table by_alpha(
      {"family", "alpha", "n", "mean_bits", "max_bits", "decode_us"});
  for (const char* family : {"path", "cycle", "tree", "grid", "king", "disk"}) {
    const Graph g = workload(family);
    const auto scheme =
        ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
    by_alpha.row()
        .cell(family)
        .cell(nominal_alpha(family), 0)
        .cell(static_cast<unsigned long long>(g.num_vertices()))
        .cell(scheme.mean_label_bits(), 0)
        .cell(static_cast<unsigned long long>(scheme.max_label_bits()))
        .cell(mean_decode_us(scheme), 1);
  }
  emit(by_alpha,
       "E4c: faithful label bits across families (the 2^{O(alpha)} factor)");

  Table per_level({"level", "lambda_i", "r_i", "points", "edges",
                   "level_bits(v0)"});
  {
    const Graph g = make_grid2d(14, 14);
    const auto scheme =
        ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
    const VertexLabel label = scheme.label(97);  // interior-ish vertex
    for (unsigned i = label.min_level; i <= label.top_level; ++i) {
      const LevelLabel& ll = label.level(i);
      // Approximate this level's encoded footprint.
      const std::size_t bits =
          ll.points.size() * (8 + 6) + ll.edges.size() * 24;
      per_level.row()
          .cell(static_cast<unsigned long long>(i))
          .cell(static_cast<unsigned long long>(scheme.params().lambda(i)))
          .cell(static_cast<unsigned long long>(scheme.params().r(i)))
          .cell(static_cast<unsigned long long>(ll.points.size()))
          .cell(static_cast<unsigned long long>(ll.edges.size()))
          .cell(static_cast<unsigned long long>(bits));
    }
  }
  emit(per_level, "E4d: per-level label profile (grid 14x14, vertex 97)");

  Table codec({"family", "n", "classic_bits", "delta_bits", "saving",
               "classic_decode_us", "delta_decode_us"});
  for (const char* family : {"path", "grid", "disk"}) {
    const Graph g = workload(family);
    BuildOptions delta;
    delta.codec = LabelCodec::kDelta;
    const auto classic =
        ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
    const auto packed =
        ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0), delta);
    codec.row()
        .cell(family)
        .cell(static_cast<unsigned long long>(g.num_vertices()))
        .cell(classic.mean_label_bits(), 0)
        .cell(packed.mean_label_bits(), 0)
        .cell(1.0 - packed.mean_label_bits() / classic.mean_label_bits(), 3)
        .cell(mean_decode_us(classic), 1)
        .cell(mean_decode_us(packed), 1);
  }
  emit(codec, "E4e: label codec ablation (classic fixed-width vs delta)");

  Table memory({"family", "n", "decoded_table_bytes", "store_bytes", "ratio"});
  for (const char* family : {"path", "grid", "king", "disk"}) {
    const Graph g = workload(family);
    const auto scheme =
        ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
    // Payload of the decoded table: every label's points, distances and
    // 16-byte sketch edges (vector headers and allocator slack left out).
    std::size_t decoded = 0;
    for (Vertex v = 0; v < scheme.num_vertices(); ++v) {
      for (const LevelLabel& ll : scheme.label(v).levels) {
        decoded += ll.points.size() * (sizeof(Vertex) + sizeof(Dist)) +
                   ll.edges.size() * sizeof(SketchEdge);
      }
    }
    const std::size_t store = scheme.store()->bytes();
    memory.row()
        .cell(family)
        .cell(static_cast<unsigned long long>(g.num_vertices()))
        .cell(static_cast<unsigned long long>(decoded))
        .cell(static_cast<unsigned long long>(store))
        .cell(static_cast<double>(decoded) / static_cast<double>(store), 1);
  }
  emit(memory,
       "E4f: oracle memory, decoded label table vs level-graph store "
       "(faithful, eps=1)");
  return 0;
}
