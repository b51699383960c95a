// Query-engine observability: stage counters and a thread-local span tracer.
//
// Two cost regimes, selected at configure time by -DFSDL_TRACE=ON|OFF:
//
//   * FSDL_TRACE=OFF (default): every entry point in this header collapses
//     to an empty inline function and trace.cpp compiles to an empty
//     translation unit. No fsdl::obs:: symbol survives in any binary (CI
//     asserts this with nm), no branch is paid on any hot path.
//   * FSDL_TRACE=ON (-DFSDL_TRACE_ENABLED=1): a global runtime level picks
//     between kOff / kCounters / kSpans, so one binary can measure its own
//     overhead (bench_trace_overhead, E17).
//
// Counters are owned per thread (plain stores, no RMW on the hot path) and
// registered with a process-wide registry; snapshot_counters() sums every
// live and retired thread's block. Instrumented code batches increments —
// one count() per decoded stage, never one per edge — so the counters-only
// level stays within the <5% overhead budget.
//
// Spans are recorded into a fixed-size per-thread ring buffer. Each thread
// writes and drains only its own ring (the server's slow-query log drains
// on the worker thread that ran the offending request), so the ring needs
// no synchronization at all: single producer, same-thread consumer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#ifndef FSDL_TRACE_ENABLED
#define FSDL_TRACE_ENABLED 0
#endif

namespace fsdl::obs {

/// Stage counters, one slot per lemma-aligned unit of decoder work (the
/// mapping to the paper's lemmas is tabulated in DESIGN.md §Instrumentation).
enum class Counter : unsigned {
  kSketchVertices = 0,    // |V(H)| summed over queries (Lemma 2.4)
  kSketchEdges,           // |E(H)| summed over queries
  kEdgesConsidered,       // virtual edges tested for certification
  kSafeEdgeChecks,        // protected-ball lookups (Lemma 2.3)
  kDijkstraRelaxations,   // arc scans in the sketch Dijkstra (Lemma 2.6)
  kPreparedCacheHit,      // server PreparedFaults LRU hit
  kPreparedCacheMiss,     // server PreparedFaults LRU miss (|F|² build paid)
  kCount_
};
inline constexpr unsigned kNumCounters = static_cast<unsigned>(Counter::kCount_);

constexpr const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kSketchVertices: return "sketch_vertices";
    case Counter::kSketchEdges: return "sketch_edges";
    case Counter::kEdgesConsidered: return "edges_considered";
    case Counter::kSafeEdgeChecks: return "safe_edge_checks";
    case Counter::kDijkstraRelaxations: return "dijkstra_relaxations";
    case Counter::kPreparedCacheHit: return "prepared_cache_hit";
    case Counter::kPreparedCacheMiss: return "prepared_cache_miss";
    case Counter::kCount_: break;
  }
  return "?";
}

struct CounterSnapshot {
  std::array<std::uint64_t, kNumCounters> values{};
  std::uint64_t operator[](Counter c) const {
    return values[static_cast<unsigned>(c)];
  }
};

enum class Level : int { kOff = 0, kCounters = 1, kSpans = 2 };

/// One completed span. Emitted on scope exit, so a drained ring lists spans
/// in completion order; rebuild the tree from (start_us, depth).
struct SpanEvent {
  const char* name = nullptr;  // static string owned by the instrumentation
  std::uint32_t depth = 0;     // nesting depth at entry (0 = root)
  double start_us = 0.0;       // relative to an arbitrary thread-local epoch
  double dur_us = 0.0;
};

/// Render drained events as an indented tree, one line per span:
/// "  name 123.4us". Works in both modes (pure formatting, no state).
std::string format_span_tree(const std::vector<SpanEvent>& events);

#if FSDL_TRACE_ENABLED

Level level() noexcept;
void set_level(Level level) noexcept;

/// Add `n` to this thread's slot for `c` (no-op below kCounters).
void count(Counter c, std::uint64_t n) noexcept;

/// Sum of every thread's counters (live and exited threads both included).
CounterSnapshot snapshot_counters();

/// Zero every registered block. Test/bench helper; racy against concurrent
/// writers by design.
void reset_counters();

/// Monotonic per-thread sequence of completed spans; pass to spans_since()
/// to drain only what happened after the mark (same thread only).
std::uint64_t span_mark() noexcept;

/// Completed spans of *this thread* since `mark`, oldest first. If more
/// than the ring capacity completed since the mark, the oldest are gone
/// (bounded memory beats completeness in a slow-query log).
std::vector<SpanEvent> spans_since(std::uint64_t mark);

/// RAII span: records a SpanEvent on destruction when level() >= kSpans at
/// construction time.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double start_us_;
  bool active_;
};

// --- distributed tracing: process-wide JSON-lines event log ---
//
// One append-only file per process (fsdl_serve/fsdl_router --trace-log).
// Each line is a flat JSON object with stable keys:
//   ts (start, wall-clock epoch micros — cross-process alignable),
//   svc ("router"/"shard"/...), pid, trace (32 hex), span (16 hex),
//   parent (16 hex, "0"*16 = root), name, dur_us, kind ("span"), and
//   shard (router fetch spans only). fsdl_trace --stitch joins lines from
//   N processes by trace id into one tree.

/// Open (append) the event log; `service` becomes every line's `svc`.
/// Returns false if the file cannot be opened. Reopening replaces the log.
bool open_event_log(const std::string& path, const std::string& service);
/// Close the log (tests / clean shutdown); recorders go inert.
void close_event_log();
bool event_log_enabled() noexcept;

/// Nonzero pseudo-random 64-bit id for spans/traces (per-thread generator,
/// seeded from std::random_device — ids must differ *across processes*).
std::uint64_t random_id();
/// Wall-clock microseconds since the Unix epoch. The event log uses wall
/// time, unlike the steady-clock span ring, so timestamps from different
/// machines/processes can be laid on one axis.
std::uint64_t epoch_us();

/// Per-request span buffer for the event log. Construct from the incoming
/// wire TraceContext fields; `add()` completed spans (safe from the
/// router's parallel fetch threads — internally locked); `flush()` writes
/// them as JSON lines if the request was sampled, or unconditionally when
/// `always` (the slow-query path) is set. Inert unless the event log is
/// open. A request with no incoming trace id gets a locally generated one,
/// so slow queries are traceable even when the client sent no context.
class TraceRecorder {
 public:
  TraceRecorder(std::uint64_t trace_hi, std::uint64_t trace_lo,
                std::uint64_t parent_span, bool sampled);

  bool active() const noexcept { return active_; }
  bool sampled() const noexcept { return sampled_; }
  std::uint64_t trace_hi() const noexcept { return trace_hi_; }
  std::uint64_t trace_lo() const noexcept { return trace_lo_; }
  /// Span id of the incoming parent (0 when this hop is the root).
  std::uint64_t parent_span() const noexcept { return parent_span_; }
  /// Fresh span id (0 when inactive — the zero id is never logged).
  std::uint64_t new_span();

  /// Record one completed span. `start_us` is epoch_us() at span start;
  /// `shard` >= 0 tags scatter-gather fetch spans with the shard index.
  void add(const char* name, std::uint64_t span, std::uint64_t parent,
           std::uint64_t start_us, double dur_us, int shard = -1);

  /// Write buffered spans to the event log when sampled() || always.
  void flush(bool always);

 private:
  struct Buffered {
    const char* name;
    std::uint64_t span, parent, start_us;
    double dur_us;
    int shard;
  };
  bool active_ = false;
  bool sampled_ = false;
  std::uint64_t trace_hi_ = 0, trace_lo_ = 0, parent_span_ = 0;
  std::mutex mu_;
  std::vector<Buffered> spans_;
};

#else  // FSDL_TRACE_ENABLED == 0: everything folds to nothing.

inline Level level() noexcept { return Level::kOff; }
inline void set_level(Level) noexcept {}
inline void count(Counter, std::uint64_t) noexcept {}
inline CounterSnapshot snapshot_counters() { return {}; }
inline void reset_counters() {}
inline std::uint64_t span_mark() noexcept { return 0; }
inline std::vector<SpanEvent> spans_since(std::uint64_t) { return {}; }

class Span {
 public:
  explicit Span(const char*) noexcept {}
};

inline std::string format_span_tree(const std::vector<SpanEvent>&) {
  return {};
}

inline bool open_event_log(const std::string&, const std::string&) {
  return false;
}
inline void close_event_log() {}
inline bool event_log_enabled() noexcept { return false; }
inline std::uint64_t random_id() { return 0; }
inline std::uint64_t epoch_us() { return 0; }

class TraceRecorder {
 public:
  TraceRecorder(std::uint64_t, std::uint64_t, std::uint64_t, bool) noexcept {}
  bool active() const noexcept { return false; }
  bool sampled() const noexcept { return false; }
  std::uint64_t trace_hi() const noexcept { return 0; }
  std::uint64_t trace_lo() const noexcept { return 0; }
  std::uint64_t parent_span() const noexcept { return 0; }
  std::uint64_t new_span() noexcept { return 0; }
  void add(const char*, std::uint64_t, std::uint64_t, std::uint64_t, double,
           int = -1) noexcept {}
  void flush(bool) noexcept {}
};

#endif  // FSDL_TRACE_ENABLED

}  // namespace fsdl::obs

/// Convenience macros so call sites read identically in both modes.
/// FSDL_SPAN needs a unique local name to allow several per scope.
#if FSDL_TRACE_ENABLED
#define FSDL_OBS_CONCAT2(a, b) a##b
#define FSDL_OBS_CONCAT(a, b) FSDL_OBS_CONCAT2(a, b)
#define FSDL_SPAN(name) ::fsdl::obs::Span FSDL_OBS_CONCAT(fsdl_span_, __LINE__)(name)
#define FSDL_COUNT(counter, n) ::fsdl::obs::count(::fsdl::obs::Counter::counter, (n))
#else
// The OFF forms still evaluate `n` (a side-effect-free counter expression
// at every call site) so instrumented code compiles identically and no
// unused-variable warnings appear; the value is discarded and optimized out.
#define FSDL_SPAN(name) ((void)0)
#define FSDL_COUNT(counter, n) ((void)(n))
#endif
