// E14 — amortized queries against a fixed fault set (the router scenario).
//
// A router holds one forbidden set F and answers many (s, t) queries.
// PreparedFaults pays the |F|-quadratic certification work once; each query
// then costs only the two endpoint labels plus Dijkstra. Expected shape:
// per-query latency of the prepared path flattens as |F| grows, while the
// one-shot path keeps its superlinear growth (E5). Two shapes (the first
// benchmark argument): 0 = path n = 8192 compact c = 3, whose fault labels
// barely overlap, and 1 = grid 14×14 faithful ε = 1 (the perfbench
// labeling), whose fault labels list mostly the same H_i pairs, so the
// prepare's union walk certifies far fewer entries than the labels list.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>

#include "bench/common.hpp"

using namespace fsdl;
using namespace fsdl::bench;

namespace {

struct Fixture {
  Graph g;
  std::unique_ptr<ForbiddenSetLabeling> scheme;
  std::unique_ptr<ForbiddenSetOracle> oracle;
  std::vector<Vertex> pool;
};

Fixture make_fixture(Graph g, const SchemeParams& params) {
  Fixture fx;
  fx.g = std::move(g);
  fx.scheme = std::make_unique<ForbiddenSetLabeling>(
      ForbiddenSetLabeling::build(fx.g, params));
  fx.oracle = std::make_unique<ForbiddenSetOracle>(*fx.scheme);
  Rng rng(17);
  fx.pool = rng.sample_distinct(fx.g.num_vertices(),
                                std::min<Vertex>(256, fx.g.num_vertices()));
  return fx;
}

/// Built on first use, so a filtered run builds only the shapes it times.
Fixture& fixture(std::int64_t shape) {
  static std::array<std::unique_ptr<Fixture>, 2> fixtures;
  auto& f = fixtures.at(static_cast<std::size_t>(shape));
  if (!f) {
    f = std::make_unique<Fixture>(
        shape == 0 ? make_fixture(make_path(8192), SchemeParams::compact(1.0, 3))
                   : make_fixture(make_grid2d(14, 14),
                                  SchemeParams::faithful(1.0)));
  }
  return *f;
}

/// (shape, |F|) pairs of every benchmark below.
void shapes_and_sizes(benchmark::internal::Benchmark* b) {
  for (std::int64_t shape : {0, 1}) {
    for (std::int64_t size : {4, 16, 32}) b->Args({shape, size});
  }
  b->ArgNames({"shape", "F"});
}

FaultSet make_faults(Fixture& fx, unsigned count, Rng& rng) {
  FaultSet f;
  while (f.size() < count) {
    f.add_vertex(fx.pool[rng.below(fx.pool.size())]);
  }
  return f;
}

void BM_OneShot(benchmark::State& state) {
  Fixture& fx = fixture(state.range(0));
  Rng rng(23);
  const FaultSet f = make_faults(fx, static_cast<unsigned>(state.range(1)), rng);
  for (auto _ : state) {
    const Vertex s = fx.pool[rng.below(fx.pool.size())];
    const Vertex t = fx.pool[rng.below(fx.pool.size())];
    benchmark::DoNotOptimize(fx.oracle->distance(s, t, f));
  }
}
BENCHMARK(BM_OneShot)->Apply(shapes_and_sizes)->Unit(benchmark::kMicrosecond);

void BM_Prepared(benchmark::State& state) {
  Fixture& fx = fixture(state.range(0));
  Rng rng(23);
  const FaultSet f = make_faults(fx, static_cast<unsigned>(state.range(1)), rng);
  const PreparedFaults prepared = fx.oracle->prepare(f);
  for (auto _ : state) {
    const Vertex s = fx.pool[rng.below(fx.pool.size())];
    const Vertex t = fx.pool[rng.below(fx.pool.size())];
    benchmark::DoNotOptimize(
        prepared.query(fx.oracle->label(s), fx.oracle->label(t)).distance);
  }
}
BENCHMARK(BM_Prepared)->Apply(shapes_and_sizes)->Unit(benchmark::kMicrosecond);

void BM_PrepareCost(benchmark::State& state) {
  Fixture& fx = fixture(state.range(0));
  Rng rng(23);
  const FaultSet f = make_faults(fx, static_cast<unsigned>(state.range(1)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.oracle->prepare(f).num_centers());
  }
}
BENCHMARK(BM_PrepareCost)->Apply(shapes_and_sizes)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
