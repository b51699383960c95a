// Bench-side tracing: an in-memory span log and the wrappers that record a
// span around each serving layer's public entry point.
//
// The benchmark measures layers from outside. It never reads the program's
// own histograms; instead Traced<Base> subclasses a FrameServer (the label
// Server or the shard Router), overrides handle(), and times the call. A
// traced request carries a fresh trace id in the wire protocol's optional
// trace-context block; the router forwards that block verbatim to the
// shards, so shard-side GET_LABEL spans carry the client's trace id too.
//
// Span names are the stage vocabulary later in-program spans should reuse:
//   loadgen.request      client send .. reply decoded (the load generator)
//   server.handle        Server::handle on a DIST/BATCH frame
//   shard.router_handle  Router::handle on a DIST/BATCH frame
//   shard.get_label      Server::handle on a GET_LABEL frame (at a shard)
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.hpp"
#include "util/stats.hpp"

namespace fsdl::perfbench {

/// Microseconds on the steady clock since this process first asked. Every
/// span and every latency sample uses this one clock.
double now_us();

struct Span {
  const char* name = "";
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t id = 0;
  /// The parent span id as the wire carried it (0 = root).
  std::uint64_t parent = 0;
  double start_us = 0.0;
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

/// Spans stay in memory while the benchmark runs and are written once at
/// exit (write_spans_jsonl).
class SpanLog {
 public:
  std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A FrameServer subclass whose handle() records one span per request that
/// carries a trace context (only the traced phase sends one). `query_span`
/// names DIST/BATCH spans; GET_LABEL frames are always "shard.get_label".
template <class Base>
class Traced final : public Base {
 public:
  template <class... Args>
  Traced(SpanLog& log, const char* query_span, Args&&... args)
      : Base(std::forward<Args>(args)...), log_(log), query_span_(query_span) {}
  // Workers must be gone before log_ and the vtable entry for handle() are.
  ~Traced() override { this->stop(); }

  server::Response handle(const server::Request& req) override {
    if (!req.trace.present) return Base::handle(req);
    Span span;
    span.name = req.opcode == server::Opcode::kGetLabel ? "shard.get_label"
                                                        : query_span_;
    span.trace_hi = req.trace.trace_hi;
    span.trace_lo = req.trace.trace_lo;
    span.id = log_.new_id();
    span.parent = req.trace.parent_span;
    span.start_us = now_us();
    server::Response resp = Base::handle(req);
    span.end_us = now_us();
    log_.add(span);
    return resp;
  }

 private:
  SpanLog& log_;
  const char* query_span_;
};

/// Per-layer summary of one span name: how often it ran, its duration, and
/// its self time (duration minus the union of the intervals covered by the
/// next layer down in the same trace).
struct LayerSummary {
  std::string name;
  std::size_t count = 0;
  double p50_us = 0.0;
  double self_p50_us = 0.0;
  double self_total_us = 0.0;
};

/// Derived per-request figures of one traced run.
struct TraceAnalysis {
  std::vector<LayerSummary> layers;
  /// loadgen.request start -> front-door handle start, and front-door
  /// handle end -> loadgen.request end, one sample per joined request.
  Summary inbound_us;
  Summary outbound_us;
  Summary front_handle_us;
  Summary router_self_us;
  Summary get_label_us;
  std::size_t client_requests = 0;
  std::size_t get_label_frames = 0;
};

/// Join spans by trace id. Layers nest loadgen.request > front door
/// (server.handle or shard.router_handle) > shard.get_label. The router
/// forwards the client's context verbatim, so a shard span's wire parent is
/// the client span; the analysis attributes it to the router span of the
/// same trace that encloses it.
TraceAnalysis analyze_spans(const std::vector<Span>& spans);

/// One JSON object per span: name, trace, span, parent, start_us, end_us.
void write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace fsdl::perfbench
