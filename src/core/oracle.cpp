#include "core/oracle.hpp"

namespace fsdl {

ForbiddenSetOracle::ForbiddenSetOracle(const ForbiddenSetLabeling& scheme)
    : scheme_(&scheme),
      store_(scheme.store() != nullptr
                 ? scheme.store()
                 : std::make_shared<const LevelGraphStore>(
                       LevelGraphStore::from_labeling(scheme))) {}

QueryResult ForbiddenSetOracle::query(Vertex s, Vertex t,
                                      const FaultSet& faults) const {
  return prepare(faults).query(label(s), label(t));
}

PreparedFaults ForbiddenSetOracle::prepare(const FaultSet& faults) const {
  std::vector<LabelView> fault_vertices;
  fault_vertices.reserve(faults.vertices().size());
  for (Vertex f : faults.vertices()) fault_vertices.push_back(label(f));
  std::vector<std::pair<LabelView, LabelView>> fault_edges;
  fault_edges.reserve(faults.edges().size());
  for (const auto& [a, b] : faults.edges()) {
    fault_edges.emplace_back(label(a), label(b));
  }
  return PreparedFaults(scheme_->params(), std::move(fault_vertices),
                        std::move(fault_edges));
}

Dist ForbiddenSetOracle::distance(Vertex s, Vertex t,
                                  const FaultSet& faults) const {
  return query(s, t, faults).distance;
}

}  // namespace fsdl
