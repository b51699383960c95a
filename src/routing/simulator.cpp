#include "routing/simulator.hpp"

#include <unordered_map>

namespace fsdl {
namespace {

/// Per-level nearest-net-point chain of an owner label, ascending levels.
std::vector<Vertex> anchor_chain(const LabelView& label) {
  std::vector<Vertex> chain;
  for (unsigned i = label.min_level(); i <= label.top_level(); ++i) {
    const LevelView ll = label.level(i);
    std::uint32_t best = 0;
    Dist best_d = kInfDist;
    for (std::uint32_t k = 1; k < ll.points.size(); ++k) {
      if (ll.dists[k] < best_d) {
        best_d = ll.dists[k];
        best = k;
      }
    }
    if (best != 0) chain.push_back(ll.points[best]);
  }
  return chain;
}

/// Uniform edge access for both graph types: weight 0 means "no edge".
Weight hop_weight(const Graph& g, Vertex u, Vertex v) {
  return g.has_edge(u, v) ? 1 : 0;
}
Weight hop_weight(const WeightedGraph& g, Vertex u, Vertex v) {
  return g.edge_weight(u, v);
}

template <typename AnyGraph>
class Walker {
 public:
  Walker(const AnyGraph& g, const ForbiddenSetRouting& routing,
         const FaultSet& faults, Dist hop_budget, RouteResult& out)
      : g_(&g), routing_(&routing), faults_(&faults), budget_(hop_budget),
        out_(&out) {}

  /// One forwarding step to `next`; false aborts the route.
  bool step(Vertex next) {
    const Vertex here = out_->path.back();
    const Weight w = hop_weight(*g_, here, next);
    if (w == 0) {
      // A port must name a real neighbor; treat violations as missing port.
      out_->missing_port = true;
      return false;
    }
    if (faults_->vertex_faulty(next) || faults_->edge_faulty(here, next)) {
      out_->blocked_by_fault = true;
      return false;
    }
    out_->path.push_back(next);
    out_->length += w;
    if (++out_->hops > budget_) {
      out_->missing_port = true;  // runaway guard counts as routing failure
      return false;
    }
    return true;
  }

  /// Follow ports toward a net-point target until reached.
  bool walk_direct(Vertex target) {
    while (out_->path.back() != target) {
      const Vertex p = routing_->port(out_->path.back(), target);
      if (p == kNoVertex) {
        out_->missing_port = true;
        return false;
      }
      if (!step(p)) return false;
    }
    return true;
  }

  /// Reach an owner waypoint: direct ports when available, otherwise descend
  /// through the owner's chain anchors (lowest usable first).
  bool walk_to_owner(Vertex target, const std::vector<Vertex>& chain) {
    while (out_->path.back() != target) {
      const Vertex here = out_->path.back();
      const Vertex p = routing_->port(here, target);
      if (p != kNoVertex) {
        if (!step(p)) return false;
        continue;
      }
      bool advanced = false;
      for (Vertex anchor : chain) {
        if (anchor == here) continue;
        if (routing_->port(here, anchor) == kNoVertex) continue;
        if (!walk_direct(anchor)) return false;
        advanced = true;
        break;
      }
      if (!advanced) {
        out_->missing_port = true;
        return false;
      }
    }
    return true;
  }

 private:
  const AnyGraph* g_;
  const ForbiddenSetRouting* routing_;
  const FaultSet* faults_;
  Dist budget_;
  RouteResult* out_;
};

template <typename AnyGraph>
RouteResult route_packet_impl(const AnyGraph& g,
                              const ForbiddenSetRouting& routing,
                              const ForbiddenSetOracle& oracle, Vertex s,
                              Vertex t, const FaultSet& faults) {
  RouteResult out;
  const QueryResult plan = oracle.query(s, t, faults);
  if (plan.distance == kInfDist) return out;  // no known route

  // Owners whose chain may be needed: s, t, and every fault center.
  std::unordered_map<Vertex, std::vector<Vertex>> chains;
  auto add_chain = [&](Vertex v) {
    auto [it, inserted] = chains.try_emplace(v);
    if (inserted) it->second = anchor_chain(oracle.label(v));
  };
  add_chain(s);
  add_chain(t);
  for (Vertex f : faults.vertices()) add_chain(f);
  for (const auto& [a, b] : faults.edges()) {
    add_chain(a);
    add_chain(b);
  }

  const unsigned vertex_bits = oracle.scheme().vertex_bits();
  out.header_bits = plan.waypoints.size() * vertex_bits;

  // Generous budget: routing failures should surface as missing_port or
  // blocked_by_fault, not as an artificial cutoff.
  const Dist budget = 16 * plan.distance + 4 * g.num_vertices() + 64;
  Walker walker(g, routing, faults, budget, out);
  out.path.push_back(s);

  for (std::size_t k = 1; k < plan.waypoints.size(); ++k) {
    const Vertex target = plan.waypoints[k];
    const auto chain_it = chains.find(target);
    if (chain_it != chains.end()) {
      out.header_bits += chain_it->second.size() * vertex_bits;
      if (!walker.walk_to_owner(target, chain_it->second)) return out;
    } else {
      if (!walker.walk_direct(target)) return out;
    }
  }
  out.delivered = out.path.back() == t;
  return out;
}

}  // namespace

RouteResult route_packet(const Graph& g, const ForbiddenSetRouting& routing,
                         const ForbiddenSetOracle& oracle, Vertex s, Vertex t,
                         const FaultSet& faults) {
  return route_packet_impl(g, routing, oracle, s, t, faults);
}

RouteResult route_packet(const WeightedGraph& g,
                         const ForbiddenSetRouting& routing,
                         const ForbiddenSetOracle& oracle, Vertex s, Vertex t,
                         const FaultSet& faults) {
  return route_packet_impl(g, routing, oracle, s, t, faults);
}

}  // namespace fsdl
