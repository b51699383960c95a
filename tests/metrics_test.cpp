// Metrics registry + Prometheus exposition tests: drive Server::handle()
// directly (no sockets), then parse the METRICS reply as a scraper would —
// structural validity of the text format, cumulative histogram buckets,
// and counter values that match the traffic actually sent.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "graph/generators.hpp"
#include "server/server.hpp"
#include "util/jsonl.hpp"

namespace fsdl::server {
namespace {

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Minimal parser for the Prometheus text format subset we emit. Fails the
/// test on any line that is neither a comment nor `name{labels} value`.
class Exposition {
 public:
  explicit Exposition(const std::string& text) {
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      if (line.empty()) {
        ADD_FAILURE() << "blank line in exposition";
        continue;
      }
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        std::istringstream ls(line);
        std::string hash, kind, name, rest;
        ls >> hash >> kind >> name;
        std::getline(ls, rest);
        if (rest.size() < 2) {
          ADD_FAILURE() << "comment without text: " << line;
        }
        (kind == "HELP" ? help_ : type_).insert(name);
        continue;
      }
      if (line[0] == '#') {
        ADD_FAILURE() << "unknown comment form: " << line;
        continue;
      }
      parse_sample(line);
    }
  }

  const std::vector<Sample>& samples() const { return samples_; }

  /// Samples with this exact metric name (histogram series use the
  /// _bucket/_sum/_count suffixed names).
  std::vector<Sample> named(const std::string& name) const {
    std::vector<Sample> out;
    for (const auto& s : samples_) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  }

  double value(const std::string& name,
               const std::map<std::string, std::string>& labels = {}) const {
    for (const auto& s : samples_) {
      if (s.name == name && s.labels == labels) return s.value;
    }
    ADD_FAILURE() << "no sample " << name;
    return -1.0;
  }

  bool has_metadata(const std::string& family) const {
    return help_.count(family) != 0 && type_.count(family) != 0;
  }

 private:
  void parse_sample(const std::string& line) {
    Sample s;
    std::size_t k = 0;
    while (k < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[k])) ||
            line[k] == '_' || line[k] == ':')) {
      s.name += line[k++];
    }
    ASSERT_FALSE(s.name.empty()) << "no metric name: " << line;
    if (k < line.size() && line[k] == '{') {
      const std::size_t close = line.find('}', k);
      ASSERT_NE(close, std::string::npos) << "unterminated labels: " << line;
      std::string body = line.substr(k + 1, close - k - 1);
      std::istringstream ls(body);
      std::string item;
      while (std::getline(ls, item, ',')) {
        const std::size_t eq = item.find("=\"");
        ASSERT_NE(eq, std::string::npos) << "bad label: " << item;
        ASSERT_EQ(item.back(), '"') << "bad label: " << item;
        s.labels[item.substr(0, eq)] =
            item.substr(eq + 2, item.size() - eq - 3);
      }
      k = close + 1;
    }
    ASSERT_LT(k, line.size()) << "no value: " << line;
    ASSERT_EQ(line[k], ' ') << "expected space before value: " << line;
    const std::string value_text = line.substr(k + 1);
    if (value_text == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else {
      std::size_t used = 0;
      s.value = std::stod(value_text, &used);
      ASSERT_EQ(used, value_text.size()) << "trailing junk: " << line;
    }
    samples_.push_back(std::move(s));
  }

  std::vector<Sample> samples_;
  std::set<std::string> help_;
  std::set<std::string> type_;
};

class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest()
      : graph_(make_grid2d(6, 6)),
        scheme_(ForbiddenSetLabeling::build(graph_,
                                            SchemeParams::compact(1.0))),
        oracle_(scheme_) {}

  Graph graph_;
  ForbiddenSetLabeling scheme_;
  ForbiddenSetOracle oracle_;
};

TEST_F(MetricsTest, PrometheusExpositionMatchesTraffic) {
  Server srv(oracle_, ServerOptions{});  // handle() needs no sockets

  Request dist;
  dist.opcode = Opcode::kDist;
  dist.pairs = {{0, 35}};
  for (int k = 0; k < 3; ++k) {
    const Response r = srv.handle(dist);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.distances.size(), 1u);
  }

  Request batch;
  batch.opcode = Opcode::kBatch;
  batch.pairs = {{0, 5}, {6, 29}, {10, 10}, {2, 33}};
  batch.faults.add_vertex(14);
  batch.faults.add_edge(0, 1);
  const Response br = srv.handle(batch);
  ASSERT_TRUE(br.ok());
  ASSERT_EQ(br.distances.size(), 4u);

  Request bad;
  bad.opcode = Opcode::kDist;
  bad.pairs = {{0, 9999}};
  EXPECT_FALSE(srv.handle(bad).ok());

  Request metrics;
  metrics.opcode = Opcode::kMetrics;
  const Response mr = srv.handle(metrics);
  ASSERT_TRUE(mr.ok());
  ASSERT_FALSE(mr.text.empty());

  Exposition exp(mr.text);

  // Every family we advertise carries HELP + TYPE metadata.
  for (const char* family :
       {"fsdl_uptime_seconds", "fsdl_connections_total", "fsdl_requests_total",
        "fsdl_queries_total", "fsdl_errors_total",
        "fsdl_request_latency_microseconds", "fsdl_stage_work_total",
        "fsdl_prepared_cache_entries", "fsdl_prepared_cache_bytes",
        "fsdl_prepared_cache_events_total",
        "fsdl_failure_events_total", "fsdl_label_crc_failures_total"}) {
    EXPECT_TRUE(exp.has_metadata(family)) << family;
  }

  // Every failure-event series is present from the start (a dashboard can
  // alert on rate() without waiting for the first incident).
  for (const char* event :
       {"request_timeouts", "sheds", "evictions", "accept_retries",
        "drain_rejects", "frame_crc_errors"}) {
    EXPECT_EQ(exp.value("fsdl_failure_events_total", {{"event", event}}), 0.0)
        << event;
  }

  EXPECT_EQ(exp.value("fsdl_requests_total", {{"type", "dist"}}), 3.0);
  EXPECT_EQ(exp.value("fsdl_requests_total", {{"type", "batch"}}), 1.0);
  EXPECT_EQ(exp.value("fsdl_queries_total"), 7.0);  // 3 DIST + 4 in the batch
  EXPECT_EQ(exp.value("fsdl_errors_total"), 0.0);   // range check pre-dates handling
  // The faulted batch missed the prepared cache once, then the entry stayed.
  EXPECT_EQ(exp.value("fsdl_prepared_cache_events_total", {{"event", "miss"}}),
            1.0);
  EXPECT_EQ(exp.value("fsdl_prepared_cache_entries"), 1.0);
  // Decoder stage work flowed into the registry (7 sketch searches ran).
  EXPECT_GT(exp.value("fsdl_stage_work_total", {{"stage", "sketch_vertices"}}),
            0.0);
  EXPECT_GT(
      exp.value("fsdl_stage_work_total", {{"stage", "dijkstra_relaxations"}}),
      0.0);

  // Histogram structure for the dist series: cumulative bucket counts,
  // +Inf bucket == _count == number of requests, _sum > 0.
  const auto buckets =
      exp.named("fsdl_request_latency_microseconds_bucket");
  double prev = 0.0;
  std::uint64_t dist_buckets = 0;
  for (const auto& b : buckets) {
    ASSERT_TRUE(b.labels.count("le")) << "bucket without le label";
    if (b.labels.at("type") != "dist") continue;
    ++dist_buckets;
    EXPECT_GE(b.value, prev) << "bucket counts must be cumulative";
    prev = b.value;
  }
  ASSERT_GT(dist_buckets, 0u);
  EXPECT_EQ(prev, 3.0);  // the +Inf bucket (rendered last) counts everything
  EXPECT_EQ(exp.value("fsdl_request_latency_microseconds_count",
                      {{"type", "dist"}}),
            3.0);
  EXPECT_GT(exp.value("fsdl_request_latency_microseconds_sum",
                      {{"type", "dist"}}),
            0.0);
}

// fsdl_prepared_cache_bytes follows the cached fault sets: it grows by a
// PreparedFaults' bytes() on a miss, and an eviction takes the evicted
// entry's bytes back out.
TEST_F(MetricsTest, PreparedCacheBytesGaugeFollowsMissesAndEvictions) {
  ServerOptions options;
  options.cache_capacity = 1;  // every new fault set evicts the last one
  options.cache_shards = 1;
  Server srv(oracle_, options);
  const auto gauge = [&] {
    Request metrics;
    metrics.opcode = Opcode::kMetrics;
    return Exposition(srv.handle(metrics).text)
        .value("fsdl_prepared_cache_bytes");
  };
  const auto dist = [&](const FaultSet& f) {
    Request r;
    r.opcode = Opcode::kDist;
    r.pairs = {{0, 35}};
    r.faults = f;
    ASSERT_TRUE(srv.handle(r).ok());
  };
  FaultSet large;
  for (Vertex v : {8u, 14u, 21u, 27u}) large.add_vertex(v);
  FaultSet small;
  small.add_vertex(20);
  const auto large_bytes = static_cast<double>(oracle_.prepare(large).bytes());
  const auto small_bytes = static_cast<double>(oracle_.prepare(small).bytes());
  ASSERT_GT(large_bytes, small_bytes);

  EXPECT_EQ(gauge(), 0.0);
  dist(large);  // miss: grows
  EXPECT_EQ(gauge(), large_bytes);
  dist(large);  // hit: unchanged
  EXPECT_EQ(gauge(), large_bytes);
  dist(small);  // miss + eviction of `large`: shrinks
  EXPECT_EQ(gauge(), small_bytes);
  EXPECT_EQ(srv.cache_stats().evictions, 1u);
  EXPECT_EQ(srv.cache_stats().bytes, static_cast<std::size_t>(small_bytes));
}

TEST_F(MetricsTest, FailureCountersFlowIntoBothRenderings) {
  Metrics m;
  m.record_failure(FailureCounter::kSheds);
  m.record_failure(FailureCounter::kSheds);
  m.record_failure(FailureCounter::kRequestTimeouts);
  m.record_failure(FailureCounter::kEvictions);
  m.record_failure(FailureCounter::kFrameCrcErrors);
  EXPECT_EQ(m.failure_total(FailureCounter::kSheds), 2u);
  EXPECT_EQ(m.failure_total(FailureCounter::kRequestTimeouts), 1u);
  EXPECT_EQ(m.failure_total(FailureCounter::kDrainRejects), 0u);

  const std::string prom = m.render_prometheus(PreparedCache::Stats{});
  Exposition exp(prom);
  EXPECT_EQ(exp.value("fsdl_failure_events_total", {{"event", "sheds"}}), 2.0);
  EXPECT_EQ(
      exp.value("fsdl_failure_events_total", {{"event", "request_timeouts"}}),
      1.0);
  EXPECT_EQ(exp.value("fsdl_failure_events_total", {{"event", "evictions"}}),
            1.0);
  EXPECT_EQ(
      exp.value("fsdl_failure_events_total", {{"event", "frame_crc_errors"}}),
      1.0);

  // The human-readable STATS rendering carries the same counters.
  const std::string text = m.render(PreparedCache::Stats{});
  EXPECT_NE(text.find("sheds: 2"), std::string::npos) << text;
  EXPECT_NE(text.find("request_timeouts: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("label_crc_failures:"), std::string::npos) << text;
}

TEST_F(MetricsTest, DegradedAndStallCountersFlowIntoBothRenderings) {
  Metrics m;
  m.record_degraded(DegradedReason::kStaleLabel);
  m.record_degraded(DegradedReason::kStaleLabel);
  m.record_degraded(DegradedReason::kShardDown);
  m.record_reactor_stall();
  m.record_worker_stall();
  m.record_worker_stall();
  m.record_worker_stall();
  EXPECT_EQ(m.degraded_total(DegradedReason::kStaleLabel), 2u);
  EXPECT_EQ(m.degraded_total(DegradedReason::kShardDown), 1u);
  EXPECT_EQ(m.reactor_stalls(), 1u);
  EXPECT_EQ(m.worker_stalls(), 3u);

  const std::string prom = m.render_prometheus(PreparedCache::Stats{});
  Exposition exp(prom);
  EXPECT_EQ(exp.value("fsdl_degraded_responses_total",
                      {{"reason", "stale_label"}}),
            2.0);
  EXPECT_EQ(
      exp.value("fsdl_degraded_responses_total", {{"reason", "shard_down"}}),
      1.0);
  EXPECT_EQ(exp.value("fsdl_reactor_stalls_total", {}), 1.0);
  EXPECT_EQ(exp.value("fsdl_worker_stalls_total", {}), 3.0);

  const std::string text = m.render(PreparedCache::Stats{});
  EXPECT_NE(text.find("degraded_responses_stale_label: 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("degraded_responses_shard_down: 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("reactor_stalls: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("worker_stalls: 3"), std::string::npos) << text;
}

TEST_F(MetricsTest, StageCountersAccumulateQueryStats) {
  Metrics m;
  QueryStats stats;
  stats.sketch_vertices = 5;
  stats.sketch_edges = 9;
  stats.pb_checks = 100;
  stats.dijkstra_relaxations = 42;
  m.record_query_stats(stats);
  m.record_query_stats(stats);
  EXPECT_EQ(m.stage_total(StageCounter::kSketchVertices), 10u);
  EXPECT_EQ(m.stage_total(StageCounter::kSketchEdges), 18u);
  EXPECT_EQ(m.stage_total(StageCounter::kSafeEdgeChecks), 200u);
  EXPECT_EQ(m.stage_total(StageCounter::kDijkstraRelaxations), 84u);
  EXPECT_EQ(m.stage_total(StageCounter::kEdgesConsidered), 0u);
}

TEST_F(MetricsTest, SlowQueryLogReportsStages) {
  ServerOptions options;
  options.slow_query_us = 0.001;  // everything is "slow"
  std::vector<std::string> reports;
  options.slow_query_sink = [&](const std::string& r) {
    reports.push_back(r);
  };
  Server srv(oracle_, options);

  Request req;
  req.opcode = Opcode::kDist;
  req.pairs = {{0, 35}};
  req.faults.add_vertex(7);
  ASSERT_TRUE(srv.handle(req).ok());

  ASSERT_EQ(reports.size(), 1u);
  // The report is one JSON line in the event-log schema (kind=slow_query),
  // so the fsdl_trace parser can ingest it alongside span records.
  std::string report = reports[0];
  ASSERT_FALSE(report.empty());
  ASSERT_EQ(report.back(), '\n');
  report.pop_back();
  JsonlRecord record;
  std::string error;
  ASSERT_TRUE(parse_jsonl(report, record, error)) << error << "\n" << report;
  EXPECT_EQ(record.get("kind"), "slow_query");
  EXPECT_EQ(record.get("svc"), "shard");
  EXPECT_EQ(record.get("op"), "DIST");
  EXPECT_EQ(record.get("pairs"), "1");
  EXPECT_EQ(record.get("fault_vertices"), "1");
  EXPECT_EQ(record.get("trace").size(), 32u);  // traceable even w/o context
  for (const char* field : {"ts", "pid", "total_us", "assemble_us",
                            "dijkstra_us", "sketch_vertices", "pb_checks",
                            "relaxations"}) {
    EXPECT_TRUE(record.has(field)) << field << "\n" << report;
  }
}

TEST_F(MetricsTest, SlowQueryLogSilentUnderThreshold) {
  ServerOptions options;
  options.slow_query_us = 1e9;  // nothing is that slow
  std::vector<std::string> reports;
  options.slow_query_sink = [&](const std::string& r) {
    reports.push_back(r);
  };
  Server srv(oracle_, options);
  Request req;
  req.opcode = Opcode::kDist;
  req.pairs = {{0, 1}};
  ASSERT_TRUE(srv.handle(req).ok());
  EXPECT_TRUE(reports.empty());
}

TEST_F(MetricsTest, HighAvailabilityCountersFlowIntoBothRenderings) {
  Metrics metrics;
  metrics.record_failover();
  metrics.record_failover();
  metrics.record_failover();
  metrics.record_hedge(/*backup_won=*/true);
  metrics.record_hedge(/*backup_won=*/true);
  metrics.record_hedge(/*backup_won=*/false);
  metrics.record_reload(ReloadResult::kOk);
  metrics.record_reload(ReloadResult::kOk);
  metrics.record_reload(ReloadResult::kCrcFailed);
  metrics.record_reload(ReloadResult::kError);

  EXPECT_EQ(metrics.failovers(), 3u);
  EXPECT_EQ(metrics.hedges(true), 2u);
  EXPECT_EQ(metrics.hedges(false), 1u);
  EXPECT_EQ(metrics.reloads(ReloadResult::kOk), 2u);
  EXPECT_EQ(metrics.reloads(ReloadResult::kCrcFailed), 1u);
  EXPECT_EQ(metrics.reloads(ReloadResult::kError), 1u);

  const std::string text = metrics.render(PreparedCache::Stats{});
  EXPECT_NE(text.find("failovers: 3"), std::string::npos) << text;
  EXPECT_NE(text.find("hedged_won: 2"), std::string::npos) << text;
  EXPECT_NE(text.find("hedged_lost: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("label_reloads_ok: 2"), std::string::npos) << text;
  EXPECT_NE(text.find("label_reloads_crc_failed: 1"), std::string::npos)
      << text;

  Exposition prom(metrics.render_prometheus(PreparedCache::Stats{}));
  EXPECT_EQ(prom.value("fsdl_failovers_total"), 3.0);
  EXPECT_EQ(prom.value("fsdl_hedged_requests_total", {{"outcome", "won"}}),
            2.0);
  EXPECT_EQ(prom.value("fsdl_hedged_requests_total", {{"outcome", "lost"}}),
            1.0);
  EXPECT_EQ(prom.value("fsdl_label_reloads_total", {{"result", "ok"}}), 2.0);
  EXPECT_EQ(
      prom.value("fsdl_label_reloads_total", {{"result", "crc_failed"}}),
      1.0);
  EXPECT_EQ(prom.value("fsdl_label_reloads_total", {{"result", "error"}}),
            1.0);
  EXPECT_TRUE(prom.has_metadata("fsdl_failovers_total"));
  EXPECT_TRUE(prom.has_metadata("fsdl_hedged_requests_total"));
  EXPECT_TRUE(prom.has_metadata("fsdl_label_reloads_total"));
}

TEST_F(MetricsTest, ReloadCountersFlowThroughTheServer) {
  ServerOptions options;
  Server srv(oracle_, options);  // borrowed oracle, no label_path
  EXPECT_NE(srv.reload(), "");  // nothing to reload from
  EXPECT_EQ(srv.metrics().reloads(ReloadResult::kError), 1u);
  Exposition prom(srv.prometheus());
  EXPECT_EQ(prom.value("fsdl_label_reloads_total", {{"result", "error"}}),
            1.0);
  EXPECT_EQ(prom.value("fsdl_label_reloads_total", {{"result", "ok"}}), 0.0);
}

}  // namespace
}  // namespace fsdl::server
