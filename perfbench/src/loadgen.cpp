#include "loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include <poll.h>

#include "server/prepared_cache.hpp"

namespace fsdl::perfbench {

namespace {

/// Budget carried in a traced request's context. A present context with a
/// zero budget reads as "already exhausted" to the router, so traced
/// requests name a budget no request comes near.
constexpr std::uint32_t kTraceDeadlineUs = 10'000'000;

/// Head start so every load thread is running before the first send.
constexpr double kStartDelayUs = 2000.0;

/// An open-loop reply not begun within this long counts as failed.
constexpr int kReplyTimeoutMs = 5000;

void sleep_until_us(double t) {
  const double remaining = t - now_us();
  if (remaining > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(remaining)));
  }
}

// Deques grow in fixed blocks: the log's resident size tracks the requests
// logged, without the jumps of a vector doubling its capacity.
struct ConnLog {
  std::deque<RequestRecord> requests;
  std::deque<Query> queries;  // Query::request indexes this log's requests
  double last_end_us = 0.0;

  std::size_t bytes() const {
    return requests.size() * sizeof(RequestRecord) +
           queries.size() * sizeof(Query);
  }
};

/// A broken stream cannot be resynchronized: reconnect. A connection left
/// closed fails its next request fast, and that is counted too.
void reconnect(server::Client& client, std::uint16_t port) {
  client.close();
  try {
    client.connect("127.0.0.1", port);
  } catch (const std::exception&) {
  }
}

/// One request between its send and its reply.
struct InFlight {
  RequestRecord rec;
  Span span;
  double due_us = 0.0;
};

/// Stamps a fresh trace context on `req` when tracing. Call just before the
/// send: the request's clock starts here.
InFlight start_request(server::Request& req, std::uint32_t connection,
                       std::uint32_t seq, std::optional<double> due_us,
                       Tracing tracing) {
  InFlight f;
  req.trace = {};
  if (tracing.spans != nullptr) {
    f.span.name = "loadgen.request";
    f.span.id = tracing.spans->new_id();
    f.span.trace_hi = tracing.trace_hi;
    f.span.trace_lo = f.span.id;
    req.trace.present = true;
    req.trace.trace_hi = f.span.trace_hi;
    req.trace.trace_lo = f.span.trace_lo;
    req.trace.parent_span = f.span.id;
    req.trace.flags = server::TraceContext::kSampledFlag;
    req.trace.deadline_us = kTraceDeadlineUs;
  }
  f.rec.connection = connection;
  f.rec.seq = seq;
  f.rec.send_us = now_us();
  f.due_us = due_us.value_or(f.rec.send_us);
  return f;
}

/// Log a finished request; `resp` is null after a transport error.
void finish_request(InFlight& f, const server::Request& req,
                    const server::Response* resp, std::uint32_t fault_id,
                    Tracing tracing, ConnLog& log) {
  const double end_us = now_us();
  f.rec.failed = resp == nullptr || !resp->ok() ||
                 resp->distances.size() != req.pairs.size();
  f.rec.lag_us = f.rec.send_us - f.due_us;
  f.rec.latency_us = end_us - f.due_us;
  log.last_end_us = end_us;
  if (tracing.spans != nullptr) {
    f.span.start_us = f.rec.send_us;
    f.span.end_us = end_us;
    tracing.spans->add(f.span);
  }
  const auto index = static_cast<std::uint32_t>(log.requests.size());
  if (!f.rec.failed) {
    for (std::size_t i = 0; i < req.pairs.size(); ++i) {
      log.queries.push_back(Query{index, fault_id, req.pairs[i].first,
                                  req.pairs[i].second, resp->distances[i]});
    }
  }
  log.requests.push_back(f.rec);
}

/// Peak resident set of this process (VmHWM), MiB.
double rss_peak_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// `peak_before_mib` is VmHWM before the phase. The logs only grow, so the
/// phase's own peak is at its end and holds them whole; taking their exact
/// size off leaves the fleet's peak, whatever the phase's throughput.
PhaseResult merge(std::vector<ConnLog>& logs, double start_us,
                  double peak_before_mib) {
  PhaseResult out;
  std::size_t log_bytes = 0;
  for (const ConnLog& log : logs) log_bytes += log.bytes();
  out.rss_peak_mib =
      std::max(peak_before_mib,
               rss_peak_mib() - static_cast<double>(log_bytes) / (1 << 20));
  double last_end = start_us;
  for (ConnLog& log : logs) {
    const auto offset = static_cast<std::uint32_t>(out.requests.size());
    for (Query q : log.queries) {
      q.request += offset;
      out.queries.push_back(q);
    }
    out.requests.insert(out.requests.end(), log.requests.begin(),
                        log.requests.end());
    last_end = std::max(last_end, log.last_end_us);
  }
  out.start_us = start_us;
  out.window_s = (last_end - start_us) / 1e6;
  return out;
}

}  // namespace

PhaseResult run_closed_loop(const WorkloadSpec& spec, const Graph& g,
                            std::vector<server::Client>& clients,
                            std::uint16_t port,
                            const std::vector<FaultSet>& sets,
                            std::uint64_t stream_seed, double seconds,
                            Tracing tracing) {
  const Vertex n = g.num_vertices();
  const std::size_t pool = spec.pool_sizes.size();
  const double peak_before_mib = rss_peak_mib();
  std::vector<ConnLog> logs(clients.size());
  const double start_us = now_us() + kStartDelayUs;
  const double stop_us = start_us + seconds * 1e6;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(derive_seed(stream_seed, c));
      // One request per pool fault set, reused so the loop copies no sets.
      std::vector<server::Request> templates(pool);
      for (std::size_t f = 0; f < pool; ++f) templates[f].faults = sets[f];
      sleep_until_us(start_us);
      for (std::uint32_t seq = 0; now_us() < stop_us; ++seq) {
        const auto fault_id = static_cast<std::uint32_t>(rng.below(pool));
        server::Request& req = templates[fault_id];
        const bool batch = spec.batch_every > 0 &&
                           seq % spec.batch_every == spec.batch_every - 1;
        req.opcode = batch ? server::Opcode::kBatch : server::Opcode::kDist;
        req.pairs.clear();
        for (unsigned k = 0; k < (batch ? spec.batch_pairs : 1u); ++k) {
          req.pairs.emplace_back(rng.vertex(n), rng.vertex(n));
        }
        InFlight f = start_request(req, static_cast<std::uint32_t>(c), seq,
                                   std::nullopt, tracing);
        try {
          const server::Response resp = clients[c].call(req);
          finish_request(f, req, &resp, fault_id, tracing, logs[c]);
        } catch (const std::exception&) {
          finish_request(f, req, nullptr, fault_id, tracing, logs[c]);
          reconnect(clients[c], port);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return merge(logs, start_us, peak_before_mib);
}

PhaseResult run_open_loop(const WorkloadSpec& spec, const Graph& g,
                          std::vector<server::Client>& clients,
                          std::uint16_t port, std::vector<FaultSet>& sets,
                          std::unordered_set<std::uint64_t>& seen,
                          std::uint64_t stream_seed, double seconds,
                          Tracing tracing) {
  const Vertex n = g.num_vertices();
  const double interval_us = spec.burst_interval_ms * 1000.0;
  const auto bursts = static_cast<std::uint32_t>(
      std::max(1.0, seconds * 1e6 / interval_us));
  // Draw every burst's fault set up front, each one new to the server.
  Rng fault_rng(derive_seed(stream_seed, 0xFA17));
  const auto first_set = static_cast<std::uint32_t>(sets.size());
  for (std::uint32_t b = 0; b < bursts; ++b) {
    FaultSet f;
    do {
      f = random_faults(g, fault_rng, spec.churn_faults, spec.edge_share);
    } while (!seen.insert(server::fault_hash(server::canonical_key(f))).second);
    sets.push_back(std::move(f));
  }

  // One thread sends each burst: all its frames back to back, one per
  // connection, then it collects the replies as they arrive. How many of a
  // burst reach the server while the leader's prepare runs is then up to
  // the server, not to how the generator's threads happen to wake.
  const std::size_t conns = clients.size();
  std::vector<Rng> rngs;
  std::vector<server::Request> reqs(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    rngs.emplace_back(derive_seed(stream_seed, c));
    reqs[c].opcode = server::Opcode::kDist;
  }
  const double peak_before_mib = rss_peak_mib();
  std::vector<ConnLog> logs(conns);
  std::vector<InFlight> flights(conns);
  std::vector<std::size_t> waiting;
  std::vector<pollfd> fds;
  const double start_us = now_us() + kStartDelayUs;
  for (std::uint32_t b = 0; b < bursts; ++b) {
    const std::uint32_t fault_id = first_set + b;
    const double due = start_us + b * interval_us;
    sleep_until_us(due);
    waiting.clear();
    for (std::size_t c = 0; c < conns; ++c) {
      reqs[c].faults = sets[fault_id];
      reqs[c].pairs.assign(1, {rngs[c].vertex(n), rngs[c].vertex(n)});
      flights[c] = start_request(reqs[c], static_cast<std::uint32_t>(c), b,
                                 due, tracing);
      try {
        clients[c].send_request(reqs[c]);
        waiting.push_back(c);
      } catch (const std::exception&) {
        finish_request(flights[c], reqs[c], nullptr, fault_id, tracing,
                       logs[c]);
        reconnect(clients[c], port);
      }
    }
    while (!waiting.empty()) {
      fds.clear();
      for (std::size_t c : waiting) fds.push_back({clients[c].fd(), POLLIN, 0});
      const bool ready = ::poll(fds.data(), fds.size(), kReplyTimeoutMs) > 0;
      std::vector<std::size_t> still;
      for (std::size_t i = 0; i < waiting.size(); ++i) {
        const std::size_t c = waiting[i];
        if (ready && fds[i].revents == 0) {
          still.push_back(c);
          continue;
        }
        try {
          if (!ready) throw std::runtime_error("no reply");
          const server::Response resp = clients[c].read_response();
          finish_request(flights[c], reqs[c], &resp, fault_id, tracing,
                         logs[c]);
        } catch (const std::exception&) {
          finish_request(flights[c], reqs[c], nullptr, fault_id, tracing,
                         logs[c]);
          reconnect(clients[c], port);
        }
      }
      waiting.swap(still);
    }
  }
  return merge(logs, start_us, peak_before_mib);
}

}  // namespace fsdl::perfbench
