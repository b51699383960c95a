// fsdl_perfbench — one workload of the repository benchmark, end to end.
//
//   fsdl_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                  [--out DIR] [--commit SHA]
//
// Sets the workload's fleet up several times (set-up time is the median),
// drives it for S seconds from in-process clients over loopback
// TCP, then checks every answer (check.hpp). With --trace 1 the time is
// split: S/2 untraced, then S/2 with a trace context on every request and
// spans recorded around each layer (spans.hpp); the span dump and the
// per-layer summary go to DIR.
//
// Output: human-readable lines, one {"meta": ...} line, and as the last
// line one JSON object with correct / attempted / failed and every metric
// (end-to-end and per-layer) by name with its unit. Exit status 1 when any
// answer failed the gate or the run was invalid, 2 on a usage or set-up
// error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "check.hpp"
#include "fleet.hpp"
#include "graph/generators.hpp"
#include "loadgen.hpp"
#include "samples.hpp"
#include "server/prepared_cache.hpp"
#include "spans.hpp"
#include "util/jsonl.hpp"
#include "workload.hpp"

namespace fsdl::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value) != 0;
    } else if (key == "--out") {
      a.out_dir = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (find_workload(a.workload) == nullptr) {
    throw std::invalid_argument("--workload must be one of: " +
                                workload_names());
  }
  if (!(a.seconds > 0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return a;
}

struct Phase {
  bool traced = false;
  double seconds = 0.0;
  /// One-second windows (see Windows).
  std::size_t windows = 1;
  PhaseResult result;
  FleetCounters counters;
  ReplayResult replay;
  std::size_t distinct_fault_sets = 0;
  Summary latency_us;  // answered requests only
  Summary lag_us;
  std::size_t answered_pairs = 0;
  std::size_t failed = 0;
};

/// Ordered (name, value, unit) list, printed as the result's metrics.
class MetricSet {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(12);
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << (i ? ", " : "") << "\"" << json_escape(entries_[i].name)
          << "\": {\"value\": " << entries_[i].value << ", \"unit\": \""
          << entries_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void print_latency(const char* label, const Summary& samples) {
  const double top = highest_supported_percentile(samples.count());
  std::printf(
      "%s latency_us: samples=%zu p50=%.1f p90=%.1f p99=%.1f max=%.1f "
      "highest_supported=p%g:%.1f\n",
      label, samples.count(), percentile_or_zero(samples, 50),
      percentile_or_zero(samples, 90), percentile_or_zero(samples, 99),
      percentile_or_zero(samples, 100), top,
      top > 0 ? samples.percentile(top) : 0.0);
}

/// A phase cut into equal windows by send time. Latency and throughput
/// drift by ±15% from one second to the next on a shared machine; the
/// median over windows is what a run reports, so one noisy second moves it
/// little.
struct Windows {
  std::vector<Summary> latency_us;
  std::vector<double> qps;

  double median_qps() const {
    Summary s;
    for (double q : qps) s.add(q);
    return s.median();
  }
};

Windows cut_windows(const PhaseResult& r, double seconds, std::size_t count) {
  Windows w;
  w.latency_us.resize(count);
  std::vector<std::size_t> pairs(count);
  std::vector<std::size_t> npairs(r.requests.size());
  for (const Query& q : r.queries) ++npairs[q.request];
  const double width_us = seconds * 1e6 / static_cast<double>(count);
  for (std::size_t i = 0; i < r.requests.size(); ++i) {
    const RequestRecord& rec = r.requests[i];
    const double at = rec.send_us - r.start_us;
    if (rec.failed || at < 0) continue;
    const auto k = static_cast<std::size_t>(at / width_us);
    if (k >= count) continue;
    w.latency_us[k].add(rec.latency_us);
    pairs[k] += npairs[i];
  }
  for (std::size_t k = 0; k < count; ++k) {
    w.qps.push_back(static_cast<double>(pairs[k]) / (width_us / 1e6));
  }
  return w;
}

/// Median over `count` windows of each window's p-th latency percentile.
double windowed_percentile(const PhaseResult& r, double seconds,
                           std::size_t count, double p) {
  const Windows w = cut_windows(r, seconds, count);
  Summary per_window;
  for (const Summary& lat : w.latency_us) {
    if (!lat.empty()) per_window.add(lat.percentile(p));
  }
  return percentile_or_zero(per_window, 50);
}

int run(const Args& args) {
  const WorkloadSpec& spec = *find_workload(args.workload);
  const Graph g = make_grid2d(spec.rows, spec.cols);
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  // The fault-set table: the warm pool first, churn sets appended later.
  Rng pool_rng(derive_seed(args.seed, 1));
  std::vector<FaultSet> sets;
  std::unordered_set<std::uint64_t> seen;
  for (unsigned size : spec.pool_sizes) {
    sets.push_back(random_faults(g, pool_rng, size, spec.edge_share));
    seen.insert(server::fault_hash(server::canonical_key(sets.back())));
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("params: %s\n", spec.describe().c_str());

  // Set up at least kMinSetups times, and more while the set-ups so far took
  // under kSetupBudgetS in total: a set-up of a few milliseconds needs many
  // repeats before its median stops moving.
  constexpr unsigned kMinSetups = 5;
  constexpr double kSetupBudgetS = 1.5;
  constexpr unsigned kMaxSetups = 40;
  SpanLog spans;
  Summary setup_s, build_s, warm_s;
  std::unique_ptr<Fleet> fleet;
  double setup_total_s = 0.0;
  for (unsigned i = 0; i < kMinSetups ||
                       (setup_total_s < kSetupBudgetS && i < kMaxSetups);
       ++i) {
    fleet.reset();  // the previous fleet is torn down untimed
    Rng warm_rng(derive_seed(args.seed, 2, i));
    SetupTimes t;
    fleet = std::make_unique<Fleet>(spec, g, sets, warm_rng, spans, t);
    setup_s.add(t.total_s);
    setup_total_s += t.total_s;
    build_s.add(t.build_s);
    warm_s.add(t.warm_s);
  }
  std::printf("setup: runs=%zu setup_s median=%.4f min=%.4f max=%.4f\n",
              setup_s.count(), setup_s.median(), setup_s.min(), setup_s.max());

  std::vector<Phase> phases;
  const auto run_phase = [&](bool traced, double seconds,
                             std::uint64_t stream) {
    Phase p;
    p.traced = traced;
    p.seconds = seconds;
    p.windows = static_cast<std::size_t>(std::max(1.0, std::round(seconds)));
    const FleetCounters before = fleet->counters();
    Tracing tracing;
    if (traced) {
      tracing.spans = &spans;
      tracing.trace_hi = derive_seed(args.seed, 3);
    }
    p.result = spec.open_loop()
                   ? run_open_loop(spec, g, fleet->clients(), fleet->port(),
                                   sets, seen, stream, seconds, tracing)
                   : run_closed_loop(spec, g, fleet->clients(), fleet->port(),
                                     sets, stream, seconds, tracing);
    p.counters = fleet->counters() - before;
    phases.push_back(std::move(p));
  };
  if (args.trace) {
    run_phase(false, args.seconds / 2, derive_seed(args.seed, 4));
    run_phase(true, args.seconds / 2, derive_seed(args.seed, 5));
  } else {
    run_phase(false, args.seconds, derive_seed(args.seed, 4));
  }

  // Correctness gate, then the per-request figures of each phase.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool valid = true;
  for (Phase& p : phases) {
    p.replay = replay_and_check(g, fleet->oracle(), spec.epsilon, sets,
                                p.result, threads);
    std::unordered_set<std::uint32_t> fault_ids;
    for (const Query& q : p.result.queries) {
      fault_ids.insert(q.fault_id);
      if (!p.result.requests[q.request].failed) ++p.answered_pairs;
    }
    p.distinct_fault_sets = fault_ids.size();
    for (const RequestRecord& r : p.result.requests) {
      if (r.failed) {
        ++p.failed;
      } else {
        p.latency_us.add(r.latency_us);
      }
      p.lag_us.add(r.lag_us);
    }
    attempted += p.result.requests.size();
    failed += p.failed;
    const char* label = p.traced ? "traced" : "untraced";
    std::printf(
        "%s phase: requests=%zu failed=%zu pairs=%zu window_s=%.3f "
        "qps=%.1f fault_sets=%zu\n",
        label, p.result.requests.size(), p.failed, p.answered_pairs,
        p.result.window_s, ratio(p.answered_pairs, p.result.window_s),
        p.distinct_fault_sets);
    print_latency(label, p.latency_us);
    const Windows w = cut_windows(p.result, p.seconds, p.windows);
    for (std::size_t k = 0; k < p.windows; ++k) {
      std::printf("  window %zu: qps=%.1f p50=%.1f p99=%.1f\n", k, w.qps[k],
                  percentile_or_zero(w.latency_us[k], 50),
                  percentile_or_zero(w.latency_us[k], 99));
    }
    std::printf(
        "%s gate: checked=%zu exact_violations=%zu replay_mismatches=%zu\n",
        label, p.replay.checked, p.replay.exact_violations,
        p.replay.replay_mismatches);
    for (const std::string& e : p.replay.examples) {
      std::printf("  mismatch: %s\n", e.c_str());
    }
    if (spec.open_loop()) {
      const double lag_p99 = percentile_or_zero(p.lag_us, 99);
      const double interval_us = spec.burst_interval_ms * 1000.0;
      std::printf("%s loadgen: lag_p99_us=%.1f burst_interval_us=%.0f\n",
                  label, lag_p99, interval_us);
      if (lag_p99 > interval_us) {
        std::printf("INVALID: the generator fell behind by more than one "
                    "burst interval\n");
        valid = false;
      }
    }
  }
  if (attempted == 0) throw std::runtime_error("no request was attempted");

  const Phase& untraced = phases.front();
  const Phase& layer_phase = phases.back();  // traced when --trace 1
  MetricSet metrics;
  metrics.add("setup_s", setup_s.median(), "s");
  // Windowed medians (see Windows). An open loop's throughput is its
  // offered rate, identical in every window, so it is total over span.
  // A window's p99 needs 1000 samples to have ten beyond it.
  const PhaseResult& timed = untraced.result;
  const std::size_t p99_windows = std::clamp<std::size_t>(
      untraced.latency_us.count() / 1000, 1, untraced.windows);
  metrics.add("qps",
              spec.open_loop()
                  ? ratio(untraced.answered_pairs, timed.window_s)
                  : cut_windows(timed, untraced.seconds, untraced.windows)
                        .median_qps(),
              "1/s");
  metrics.add("lat_p50_us",
              windowed_percentile(timed, untraced.seconds, untraced.windows,
                                  50),
              "us");
  metrics.add("lat_p99_us",
              windowed_percentile(timed, untraced.seconds, p99_windows, 99),
              "us");
  metrics.add("rss_peak_mb", timed.rss_peak_mib, "MiB");
  metrics.add("fail_ratio", ratio(failed, attempted), "ratio");

  const ReplayResult& replay = layer_phase.replay;
  const double counted = static_cast<double>(replay.counted_queries);
  metrics.add("core.build_s", build_s.median(), "s");
  metrics.add("core.warm_s", warm_s.median(), "s");
  metrics.add("core.label_bytes",
              static_cast<double>(fleet->scheme().total_bits()) / 8.0, "bytes");
  metrics.add("core.prepare_us", percentile_or_zero(replay.prepare_us, 50), "us");
  metrics.add("core.assemble_us", percentile_or_zero(replay.assemble_us, 50), "us");
  metrics.add("core.dijkstra_us", percentile_or_zero(replay.dijkstra_us, 50), "us");
  metrics.add("core.pb_checks_per_query", ratio(replay.pb_checks, counted),
              "count");
  metrics.add("core.edges_considered_per_query",
              ratio(replay.edges_considered, counted), "count");
  metrics.add("core.sketch_edges_per_query",
              ratio(replay.sketch_edges, counted), "count");
  metrics.add("core.relaxations_per_query", ratio(replay.relaxations, counted),
              "count");

  const TraceAnalysis trace = analyze_spans(spans.spans());
  const FleetCounters& c = layer_phase.counters;
  metrics.add("server.inbound_us", percentile_or_zero(trace.inbound_us, 50), "us");
  metrics.add("server.handle_us", percentile_or_zero(trace.front_handle_us, 50), "us");
  metrics.add("server.outbound_us", percentile_or_zero(trace.outbound_us, 50), "us");
  metrics.add("server.cache_hit_ratio",
              ratio(c.cache_hits, c.cache_hits + c.cache_misses), "ratio");
  metrics.add("server.prepares_per_key",
              ratio(c.cache_misses, layer_phase.distinct_fault_sets), "ratio");
  metrics.add("server.batch_mean", ratio(c.batched_requests, c.batch_groups),
              "count");
  const bool routed = spec.shards > 0;
  metrics.add("shard.router_handle_us",
              routed ? percentile_or_zero(trace.front_handle_us, 50) : 0.0, "us");
  metrics.add("shard.router_self_us", percentile_or_zero(trace.router_self_us, 50), "us");
  metrics.add("shard.get_label_us", percentile_or_zero(trace.get_label_us, 50), "us");
  metrics.add("shard.get_label_frames_per_request",
              ratio(trace.get_label_frames, trace.client_requests), "ratio");
  metrics.add("shard.label_hit_ratio",
              ratio(c.label_hits, c.label_hits + c.label_misses), "ratio");
  metrics.add("loadgen.lag_p99_us",
              spec.open_loop() ? percentile_or_zero(layer_phase.lag_us, 99) : 0.0,
              "us");
  metrics.add("trace.overhead_ratio",
              args.trace
                  ? ratio(windowed_percentile(layer_phase.result,
                                              layer_phase.seconds,
                                              layer_phase.windows, 50),
                          windowed_percentile(untraced.result, untraced.seconds,
                                              untraced.windows, 50))
                  : 0.0,
              "ratio");

  if (args.trace) {
    const std::string stem = args.out_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed);
    write_spans_jsonl(stem + ".spans.jsonl", spans.spans());
    std::ofstream summary(stem + ".layers.jsonl");
    for (const LayerSummary& l : trace.layers) {
      const std::string line =
          JsonlWriter()
              .field("layer", l.name)
              .field_u64("count", l.count)
              .field_double("p50_us", l.p50_us)
              .field_double("self_p50_us", l.self_p50_us)
              .field_double("self_total_us", l.self_total_us)
              .line();
      summary << line << '\n';
      std::printf("layer %s\n", line.c_str());
    }
    if (!summary.flush()) throw std::runtime_error("cannot write " + stem);
    std::printf("spans: %s.spans.jsonl\n", stem.c_str());
  }

  const bool correct = failed == 0 && valid;
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"setups\": %zu, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"commit\": \"%s\", \"params\": \"%s\"}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, setup_s.count(),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, json_escape(args.commit).c_str(),
      spec.describe().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, failed, metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fsdl::perfbench

int main(int argc, char** argv) {
  try {
    return fsdl::perfbench::run(fsdl::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "fsdl_perfbench: %s\n", e.what());
    return 2;
  }
}
