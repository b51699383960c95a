// fsdl_serve — the query service daemon.
//
//   fsdl_serve <scheme.fsdl> [--port P] [--workers N] [--cache C]
//              [--backlog B] [--recv-timeout-ms T] [--send-timeout-ms T]
//              [--request-deadline-ms D] [--max-queued Q] [--drain-ms D]
//              [--data-plane reactor|thread] [--reactor-threads N]
//              [--batch-window-us U] [--watchdog-ms MS]
//              [--watchdog-stall-ms MS] [--watchdog-abort-ms MS]
//              [--metrics-dump FILE] [--metrics-interval S] [--admin]
//              [--slow-query-us T] [--trace-level off|counters|spans]
//              [--shard-id I --shard-count K]
//   fsdl_serve <graph.edges> --build [--build-threads N] [--build-eps E]
//              [--build-compact C] [...same serving flags]
//   fsdl_serve --health HOST:PORT        one-shot readiness probe
//   fsdl_serve --fleet-stats HOST:PORT   one-shot FLEET_STATS probe (router)
//
// Loads a serialized labeling (fsdl build) — or, with --build, an edge-list
// graph whose labels are constructed at startup on --build-threads workers
// (default 0 = hardware concurrency; cold-start wall time is logged) —
// shares one read-only oracle across a worker pool, and answers DIST /
// BATCH / STATS / METRICS frames on 127.0.0.1:P (P=0 picks an ephemeral
// port, printed on stdout). SIGINT or SIGTERM triggers a graceful shutdown:
// stop accepting, drain in-flight requests, dump the metrics snapshot.
//
// High availability plumbing:
//   SIGHUP                 hot-reload the label file the server was started
//                          from: load + CRC-validate in the background, then
//                          atomically swap; in-flight queries finish on the
//                          old labels. A corrupt file is rejected and the
//                          old labels keep serving. (File-backed servers
//                          only; --build has no file to reload.)
//   --admin                also accept the RELOAD opcode over the wire
//                          (off by default — a network peer should not be
//                          able to force disk reads unless opted in).
//   --health HOST:PORT     probe mode: send one HEALTH frame and print the
//                          reply. Exit 0 = ready, 1 = alive but not ready
//                          (loading/draining), 2 = unreachable. What a
//                          load balancer or supervisor calls.
//
// Sharding plumbing (see src/shard/):
//   --shard-id I --shard-count K
//                          assert that the loaded label file is shard I of a
//                          K-way split (fsdl shard_split) and refuse to
//                          start otherwise. Deployment armor: a supervisor
//                          that starts `fsdl_serve part.shard2of4 --shard-id
//                          2 --shard-count 4` can never accidentally serve
//                          the wrong partition because a copy step shuffled
//                          files. The file itself is authoritative either
//                          way — the server always serves exactly the
//                          partition recorded in the (CRC-covered) label
//                          file and reports it as `shard=I/K` in HEALTH.
//
// Observability plumbing:
//   --metrics-dump FILE    write the Prometheus text exposition to FILE
//                          every --metrics-interval seconds (default 5) and
//                          once at shutdown — point a node_exporter textfile
//                          collector (or any file scraper) at it.
//   --slow-query-us T      log requests slower than T microseconds as one
//                          JSON line (event-log schema; span tree at
//                          --trace-level spans in trace builds).
//   --trace-level L        runtime level of the compiled-in tracer; only
//                          meaningful when built with -DFSDL_TRACE=ON.
//   --trace-log FILE       append distributed-tracing span records (JSON
//                          lines, svc="shard") for sampled or slow requests;
//                          stitch across processes with fsdl_trace --stitch.
//                          Needs -DFSDL_TRACE=ON.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "core/serialize.hpp"
#include "graph/io.hpp"
#include "obs/trace.hpp"
#include "server/client.hpp"
#include "server/replica_client.hpp"
#include "server/server.hpp"
#include "util/atomic_file.hpp"
#include "util/failpoint.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace {

// Self-pipe: the signal handler writes one byte; main polls it. The byte
// value carries which event fired: 't' = terminate (SIGINT/SIGTERM),
// 'h' = hot reload (SIGHUP).
int g_shutdown_pipe[2] = {-1, -1};

void on_terminate(int) {
  const char byte = 't';
  // write() is async-signal-safe; best effort.
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

void on_hup(int) {
  const char byte = 'h';
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: fsdl_serve <scheme.fsdl> [--port P] [--workers N]\n"
               "                  [--cache C] [--backlog B]\n"
               "                  [--recv-timeout-ms T] [--send-timeout-ms "
               "T]\n"
               "                  [--request-deadline-ms D] [--max-queued "
               "Q]\n"
               "                  [--drain-ms D]\n"
               "                  [--data-plane reactor|thread]\n"
               "                  [--reactor-threads N] [--batch-window-us "
               "U]\n"
               "                  [--watchdog-ms MS] [--watchdog-stall-ms "
               "MS]\n"
               "                  [--watchdog-abort-ms MS]\n"
               "                  [--metrics-dump FILE] [--metrics-interval "
               "S]\n"
               "                  [--slow-query-us T]\n"
               "                  [--trace-level off|counters|spans]\n"
               "                  [--trace-log FILE]\n"
               "                  [--shard-id I --shard-count K]\n"
               "                  [--failpoints SPEC]   (also: env "
               "FSDL_FAILPOINTS)\n"
               "       fsdl_serve <graph.edges> --build [--build-threads N]\n"
               "                  [--build-eps E] [--build-compact C] [...]\n"
               "       fsdl_serve --health HOST:PORT\n"
               "       fsdl_serve --fleet-stats HOST:PORT\n");
  std::exit(2);
}

/// --health HOST:PORT probe: one HEALTH round-trip, reply on stdout — e.g.
/// "ready epoch=1 n=64 shard=0/2 plane=reactor uptime_s=12 conns=3" (the
/// state may also be loading/draining, or degraded when the watchdog sees a
/// stalled loop). Exit codes: 0 ready, 1 alive-but-not-ready (includes
/// degraded), 2 unreachable.
int run_health_probe(const std::string& target) {
  using namespace fsdl::server;
  try {
    const std::vector<Endpoint> eps = parse_endpoints(target);
    ClientOptions copt;
    copt.connect_timeout_ms = 2000;
    copt.recv_timeout_ms = 2000;
    copt.send_timeout_ms = 2000;
    Client client(copt);
    client.connect(eps[0].host, eps[0].port);
    const std::string reply = client.health();
    std::printf("%s\n", reply.c_str());
    return reply.rfind("ready", 0) == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unreachable: %s\n", e.what());
    return 2;
  }
}

/// --fleet-stats HOST:PORT probe: one FLEET_STATS round-trip against a
/// router, merged Prometheus exposition on stdout. Exit 0 on success.
int run_fleet_stats_probe(const std::string& target) {
  using namespace fsdl::server;
  try {
    const std::vector<Endpoint> eps = parse_endpoints(target);
    ClientOptions copt;
    copt.connect_timeout_ms = 2000;
    copt.recv_timeout_ms = 5000;
    copt.send_timeout_ms = 2000;
    Client client(copt);
    client.connect(eps[0].host, eps[0].port);
    std::printf("%s", client.fleet_stats().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet-stats failed: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsdl;
  {
    const std::string error = failpoint::arm_from_env();
    if (!error.empty()) {
      std::fprintf(stderr, "fsdl_serve: FSDL_FAILPOINTS: %s\n", error.c_str());
      return 2;
    }
  }
  if (argc < 2) usage();
  if (std::string(argv[1]) == "--health") {
    if (argc != 3) usage("--health takes exactly one HOST:PORT");
    return run_health_probe(argv[2]);
  }
  if (std::string(argv[1]) == "--fleet-stats") {
    if (argc != 3) usage("--fleet-stats takes exactly one HOST:PORT");
    return run_fleet_stats_probe(argv[2]);
  }
  const std::string scheme_path = argv[1];
  server::ServerOptions options;
  std::string metrics_path;
  double metrics_interval_s = 5.0;
  bool build_from_graph = false;
  unsigned build_threads = 0;
  double build_eps = 1.0;
  long build_compact = -1;
  long expect_shard_id = -1;
  long expect_shard_count = -1;
  for (int k = 2; k < argc; ++k) {
    const std::string arg = argv[k];
    if (arg == "--build") {
      build_from_graph = true;
    } else if (arg == "--build-threads" && k + 1 < argc) {
      build_threads = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--build-eps" && k + 1 < argc) {
      build_eps = std::strtod(argv[++k], nullptr);
    } else if (arg == "--build-compact" && k + 1 < argc) {
      build_compact = std::strtol(argv[++k], nullptr, 10);
    } else if (arg == "--port" && k + 1 < argc) {
      options.port = static_cast<std::uint16_t>(std::atoi(argv[++k]));
    } else if (arg == "--workers" && k + 1 < argc) {
      options.workers = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--cache" && k + 1 < argc) {
      options.cache_capacity = static_cast<std::size_t>(std::atol(argv[++k]));
    } else if (arg == "--backlog" && k + 1 < argc) {
      options.listen_backlog = std::atoi(argv[++k]);
    } else if (arg == "--recv-timeout-ms" && k + 1 < argc) {
      options.recv_timeout_ms = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--send-timeout-ms" && k + 1 < argc) {
      options.send_timeout_ms = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--request-deadline-ms" && k + 1 < argc) {
      options.request_deadline_ms = std::strtod(argv[++k], nullptr);
    } else if (arg == "--max-queued" && k + 1 < argc) {
      options.max_queued_connections =
          static_cast<std::size_t>(std::atol(argv[++k]));
    } else if (arg == "--drain-ms" && k + 1 < argc) {
      options.drain_deadline_ms = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--data-plane" && k + 1 < argc) {
      const std::string plane = argv[++k];
      if (plane == "reactor") {
        options.data_plane = server::DataPlane::kEpollReactor;
      } else if (plane == "thread") {
        options.data_plane = server::DataPlane::kThreadPerConnection;
      } else {
        usage("--data-plane must be 'reactor' or 'thread'");
      }
    } else if (arg == "--reactor-threads" && k + 1 < argc) {
      options.reactor_threads = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--batch-window-us" && k + 1 < argc) {
      options.batch_window_us = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--watchdog-ms" && k + 1 < argc) {
      options.watchdog_interval_ms = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--watchdog-stall-ms" && k + 1 < argc) {
      options.watchdog_stall_ms = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--watchdog-abort-ms" && k + 1 < argc) {
      options.watchdog_abort_ms = static_cast<unsigned>(std::atoi(argv[++k]));
    } else if (arg == "--shard-id" && k + 1 < argc) {
      expect_shard_id = std::strtol(argv[++k], nullptr, 10);
    } else if (arg == "--shard-count" && k + 1 < argc) {
      expect_shard_count = std::strtol(argv[++k], nullptr, 10);
    } else if (arg == "--admin") {
      options.admin = true;
    } else if (arg == "--failpoints" && k + 1 < argc) {
      const std::string error = failpoint::arm(argv[++k]);
      if (!error.empty()) usage(error.c_str());
    } else if (arg == "--metrics-dump" && k + 1 < argc) {
      metrics_path = argv[++k];
    } else if (arg == "--metrics-interval" && k + 1 < argc) {
      metrics_interval_s = std::strtod(argv[++k], nullptr);
    } else if (arg == "--slow-query-us" && k + 1 < argc) {
      options.slow_query_us = std::strtod(argv[++k], nullptr);
    } else if (arg == "--trace-level" && k + 1 < argc) {
      const std::string level = argv[++k];
      if (level == "off") obs::set_level(obs::Level::kOff);
      else if (level == "counters") obs::set_level(obs::Level::kCounters);
      else if (level == "spans") obs::set_level(obs::Level::kSpans);
      else usage("unknown trace level");
#if !FSDL_TRACE_ENABLED
      std::fprintf(stderr,
                   "fsdl_serve: warning: built without FSDL_TRACE, "
                   "--trace-level has no effect\n");
#endif
    } else if (arg == "--trace-log" && k + 1 < argc) {
      const char* path = argv[++k];
      if (!obs::open_event_log(path, "shard")) {
        std::fprintf(stderr,
                     "fsdl_serve: warning: cannot open trace log %s%s\n",
                     path,
                     FSDL_TRACE_ENABLED
                         ? ""
                         : " (built without FSDL_TRACE, --trace-log has no "
                           "effect)");
      }
    } else {
      usage("unknown option");
    }
  }
  if (metrics_interval_s <= 0) usage("--metrics-interval must be > 0");
  if ((expect_shard_id >= 0) != (expect_shard_count >= 0)) {
    usage("--shard-id and --shard-count must be given together");
  }
  if (expect_shard_id >= 0 && build_from_graph) {
    usage("--shard-id/--shard-count require a label file (not --build)");
  }

  try {
    auto scheme = [&] {
      if (!build_from_graph) return load_labeling(scheme_path);
      const Graph g = load_graph(scheme_path);
      const SchemeParams params =
          build_compact >= 0
              ? SchemeParams::compact(build_eps,
                                      static_cast<unsigned>(build_compact))
              : SchemeParams::faithful(build_eps);
      BuildOptions build_options;
      build_options.threads = build_threads;
      const WallTimer build_timer;
      auto built = ForbiddenSetLabeling::build(g, params, build_options);
      std::printf("fsdl_serve: built labels n=%u in %.2fs (threads=%u)\n",
                  g.num_vertices(), build_timer.elapsed_seconds(),
                  resolve_threads(build_threads));
      return built;
    }();
    const unsigned n = scheme.num_vertices();
    const double eps = scheme.params().epsilon;
    const shard::PartitionInfo part = scheme.partition();
    if (expect_shard_id >= 0 &&
        (part.shard_id != static_cast<std::uint32_t>(expect_shard_id) ||
         part.shard_count != static_cast<std::uint32_t>(expect_shard_count))) {
      std::fprintf(stderr,
                   "error: %s is shard %u/%u but this server was started "
                   "with --shard-id %ld --shard-count %ld\n",
                   scheme_path.c_str(), part.shard_id, part.shard_count,
                   expect_shard_id, expect_shard_count);
      return 1;
    }
    // Only a file-backed server has something to reload on SIGHUP/RELOAD.
    if (!build_from_graph) options.label_path = scheme_path;
    server::Server srv(std::move(scheme), options);

    if (::pipe(g_shutdown_pipe) != 0) {
      std::fprintf(stderr, "error: pipe() failed\n");
      return 1;
    }
    std::signal(SIGINT, on_terminate);
    std::signal(SIGTERM, on_terminate);
    std::signal(SIGHUP, on_hup);

    srv.start();
    // Server::start() normalizes listen_backlog <= 0 to its default; log
    // the effective value the listener actually got.
    const int effective_backlog =
        options.listen_backlog <= 0 ? 64 : options.listen_backlog;
    std::printf("fsdl_serve: n=%u eps=%.3g shard=%u/%u workers=%u cache=%zu "
                "backlog=%d plane=%s port=%u%s\n",
                n, eps, part.shard_id, part.shard_count, options.workers,
                options.cache_capacity, effective_backlog,
                options.data_plane == server::DataPlane::kEpollReactor
                    ? "reactor"
                    : "thread",
                srv.port(), options.admin ? " admin=on" : "");
    std::fflush(stdout);

    // Wait for signal bytes; with --metrics-dump the wait doubles as the
    // flush period (poll timeout), so no dedicated flusher thread.
    const int timeout_ms =
        metrics_path.empty() ? -1
                             : static_cast<int>(metrics_interval_s * 1000.0);
    const auto flush_metrics = [&] {
      std::string error;
      if (!atomic_write_file(metrics_path, srv.prometheus(), &error)) {
        std::fprintf(stderr, "fsdl_serve: cannot write metrics to %s: %s\n",
                     metrics_path.c_str(), error.c_str());
      }
    };
    for (;;) {
      struct pollfd pfd{g_shutdown_pipe[0], POLLIN, 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (rc == 0) {  // metrics flush tick
        flush_metrics();
        continue;
      }
      char byte = 't';
      if (::read(g_shutdown_pipe[0], &byte, 1) <= 0) break;
      if (byte != 'h') break;  // terminate
      // SIGHUP: hot-reload the label file. Queries keep flowing the whole
      // time; on failure the old labels keep serving.
      const WallTimer reload_timer;
      const std::string error = srv.reload();
      if (error.empty()) {
        std::printf("fsdl_serve: reloaded %s epoch=%llu in %.2fs\n",
                    scheme_path.c_str(),
                    static_cast<unsigned long long>(srv.label_epoch()),
                    reload_timer.elapsed_seconds());
      } else {
        std::fprintf(stderr, "fsdl_serve: reload failed (%s); still serving "
                             "epoch=%llu\n",
                     error.c_str(),
                     static_cast<unsigned long long>(srv.label_epoch()));
      }
      std::fflush(stdout);
      std::fflush(stderr);
    }
    std::printf("\nfsdl_serve: shutting down...\n");
    srv.stop();
    if (!metrics_path.empty()) flush_metrics();
    std::printf("%s", srv.metrics().render(srv.cache_stats()).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
