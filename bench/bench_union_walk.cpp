// E26 — the prepare step's union walk against the per-label scan.
//
// PreparedFaults certifies the fault labels' level edges once per fault
// set. Every label's level graph is an induced subgraph of one shared H_i,
// so the labels of F list mostly the same pairs. When the labels share a
// store, the prepare walks H_i once over the union of their hub lists and
// certifies each entry once; labels spread over stores (or the router's
// single-label stores) are filtered one by one. This binary times both on
// the same fault sets: the per-label scan is forced by drawing every other
// fault's label from a second store rebuilt from the same labeling. Both
// must prepare the same edge list (checked), so the columns compare only
// cost: prepare µs (median over fault sets of the best of 3 builds) and
// work (label edges visited by the scan against H_i entries visited by the
// walk, owner edges counted on both sides). Expected shape: the walk's
// gain grows with |F| and with how much the fault labels overlap (grids
// most, long paths least).
#include <algorithm>
#include <cstdlib>
#include <limits>

#include "bench/common.hpp"
#include "core/decoder.hpp"
#include "core/level_store.hpp"

using namespace fsdl;
using namespace fsdl::bench;

namespace {

struct Shape {
  const char* name;
  Graph graph;
  SchemeParams params;
};

struct Cost {
  double us = 0.0;
  std::size_t considered = 0;
};

/// Best of `reps` builds of `build()`, and the work it counted.
template <typename Build>
Cost best_of(unsigned reps, Build&& build) {
  Cost out{std::numeric_limits<double>::infinity(), 0};
  for (unsigned r = 0; r < reps; ++r) {
    const PreparedFaults p = build();
    out.us = std::min(out.us, p.prepare_us());
    out.considered = p.prepare_stats().edges_considered;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Optional argument: fault sets per row (default 20).
  const unsigned sets = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 20;
  std::cout << "E26: prepare by union walk vs per-label scan (" << sets
            << " fault sets per row)\n";
  std::vector<Shape> shapes;
  shapes.push_back({"grid 14x14 faithful", make_grid2d(14, 14),
                    SchemeParams::faithful(1.0)});
  shapes.push_back({"king 3x128 faithful", make_king_grid(3, 128),
                    SchemeParams::faithful(1.0)});
  shapes.push_back({"grid 6x128 faithful", make_grid2d(6, 128),
                    SchemeParams::faithful(1.0)});
  shapes.push_back({"grid 32x32 compact", make_grid2d(32, 32),
                    SchemeParams::compact(1.0)});
  shapes.push_back({"grid 6x128 compact", make_grid2d(6, 128),
                    SchemeParams::compact(1.0)});
  shapes.push_back({"path 1024 faithful", make_path(1024),
                    SchemeParams::faithful(1.0)});
  shapes.push_back({"path 8192 compact c=3", make_path(8192),
                    SchemeParams::compact(1.0, 3)});

  Table table({"shape", "n", "|F|", "label_edges", "H_i_entries", "work_ratio",
               "scan_us", "walk_us", "speedup", "identical"});
  for (const Shape& shape : shapes) {
    const ForbiddenSetLabeling scheme =
        ForbiddenSetLabeling::build(shape.graph, shape.params);
    const ForbiddenSetOracle oracle(scheme);
    const LevelGraphStore other = LevelGraphStore::from_labeling(scheme);
    const Vertex n = shape.graph.num_vertices();
    for (unsigned size : {2u, 8u, 40u}) {
      Rng rng(0xE26 + size);
      Summary scan_us, walk_us;
      std::size_t scan_work = 0, walk_work = 0;
      bool identical = true;
      for (unsigned k = 0; k < sets; ++k) {
        FaultSet f;
        std::vector<LabelView> mixed;
        while (f.size() < size) {
          const Vertex v = rng.vertex(n);
          if (f.vertex_faulty(v)) continue;
          mixed.push_back(f.size() % 2 == 0 ? oracle.label(v) : other.label(v));
          f.add_vertex(v);
        }
        const Cost walk = best_of(3, [&] { return oracle.prepare(f); });
        const Cost scan = best_of(3, [&] {
          return PreparedFaults(scheme.params(), mixed, {});
        });
        identical = identical &&
                    oracle.prepare(f).center_edges() ==
                        PreparedFaults(scheme.params(), mixed, {}).center_edges();
        walk_us.add(walk.us);
        scan_us.add(scan.us);
        walk_work += walk.considered;
        scan_work += scan.considered;
      }
      const double scan_med = scan_us.median();
      const double walk_med = walk_us.median();
      table.row()
          .cell(shape.name)
          .cell(static_cast<unsigned long long>(n))
          .cell(static_cast<unsigned long long>(size))
          .cell(static_cast<double>(scan_work) / sets, 0)
          .cell(static_cast<double>(walk_work) / sets, 0)
          .cell(static_cast<double>(scan_work) / static_cast<double>(walk_work),
                1)
          .cell(scan_med, 0)
          .cell(walk_med, 0)
          .cell(scan_med / walk_med, 1)
          .cell(identical ? "yes" : "NO");
      if (!identical) {
        std::cerr << "union walk and per-label scan disagree on "
                  << shape.name << " |F|=" << size << "\n";
        return 1;
      }
    }
  }
  emit(table, "E26: prepare cost, per-label scan vs union walk");
  return 0;
}
