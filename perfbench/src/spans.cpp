#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <stdexcept>
#include <tuple>

#include "util/jsonl.hpp"

namespace fsdl::perfbench {

double now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point anchor = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - anchor)
      .count();
}

namespace {

/// Nesting depth of each span name (see analyze_spans).
int depth_of(const std::string& name) {
  if (name == "loadgen.request") return 0;
  if (name == "server.handle" || name == "shard.router_handle") return 1;
  if (name == "shard.get_label") return 2;
  return -1;
}

/// Microseconds of [start, end] covered by the union of `children`.
double covered_us(double start, double end,
                  std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = start;
  for (auto [a, b] : children) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return covered;
}

}  // namespace

TraceAnalysis analyze_spans(const std::vector<Span>& spans) {
  using TraceId = std::pair<std::uint64_t, std::uint64_t>;
  std::map<TraceId, std::vector<const Span*>> by_trace;
  for (const Span& s : spans) {
    by_trace[{s.trace_hi, s.trace_lo}].push_back(&s);
  }

  TraceAnalysis out;
  std::map<std::string, Summary> duration;
  std::map<std::string, Summary> self;
  for (const auto& [id, group] : by_trace) {
    const Span* client = nullptr;
    const Span* front = nullptr;
    for (const Span* s : group) {
      const int depth = depth_of(s->name);
      if (depth == 0) client = s;
      if (depth == 1) front = s;
      if (depth == 2) {
        out.get_label_us.add(s->duration_us());
        ++out.get_label_frames;
      }
    }
    if (client != nullptr) ++out.client_requests;
    if (client != nullptr && front != nullptr) {
      out.inbound_us.add(front->start_us - client->start_us);
      out.outbound_us.add(client->end_us - front->end_us);
    }
    if (front != nullptr) out.front_handle_us.add(front->duration_us());

    for (const Span* s : group) {
      const int depth = depth_of(s->name);
      std::vector<std::pair<double, double>> children;
      for (const Span* c : group) {
        if (depth_of(c->name) == depth + 1 && c->start_us >= s->start_us &&
            c->end_us <= s->end_us) {
          children.emplace_back(c->start_us, c->end_us);
        }
      }
      const double self_us =
          s->duration_us() - covered_us(s->start_us, s->end_us, children);
      duration[s->name].add(s->duration_us());
      self[s->name].add(self_us);
      if (std::string(s->name) == "shard.router_handle") {
        out.router_self_us.add(self_us);
      }
    }
  }
  for (const auto& [name, durations] : duration) {
    LayerSummary layer;
    layer.name = name;
    layer.count = durations.count();
    layer.p50_us = durations.median();
    layer.self_p50_us = self[name].median();
    layer.self_total_us = self[name].mean() * static_cast<double>(layer.count);
    out.layers.push_back(layer);
  }
  std::sort(out.layers.begin(), out.layers.end(),
            [](const LayerSummary& a, const LayerSummary& b) {
              return std::make_tuple(depth_of(a.name), a.name) <
                     std::make_tuple(depth_of(b.name), b.name);
            });
  return out;
}

void write_spans_jsonl(const std::string& path,
                       const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans) {
    out << JsonlWriter()
               .field("name", s.name)
               .field_hex128("trace", s.trace_hi, s.trace_lo)
               .field_hex64("span", s.id)
               .field_hex64("parent", s.parent)
               .field_double("start_us", s.start_us)
               .field_double("end_us", s.end_us)
               .line()
        << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace fsdl::perfbench
