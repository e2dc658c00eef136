#include "repair/metrics.h"

#include <algorithm>

#include "graph/components.h"
#include "graph/mis.h"

namespace prefrep {

std::string RepairSpaceMetrics::ToString() const {
  std::string out;
  out += "tuples:               " + std::to_string(tuple_count) + "\n";
  out += "conflicts:            " + std::to_string(conflict_count) + "\n";
  out += "conflicting tuples:   " + std::to_string(conflicting_tuple_count) +
         "\n";
  out += "components:           " + std::to_string(component_count) +
         " (largest " + std::to_string(largest_component) + ")\n";
  out += "max conflicts/tuple:  " + std::to_string(max_degree) + "\n";
  out += "repairs:              " + repair_count.ToString() + "\n";
  out += "repair sizes:         [" + std::to_string(min_repair_size) + ", " +
         std::to_string(max_repair_size) + "]\n";
  out += "oriented conflicts:   " + std::to_string(oriented_conflicts) +
         " / " + std::to_string(conflict_count) + "\n";
  return out;
}

RepairSpaceMetrics ComputeRepairSpaceMetrics(const RepairProblem& problem,
                                             const Priority* priority) {
  const ConflictGraph& graph = problem.graph();
  RepairSpaceMetrics metrics;
  metrics.tuple_count = graph.vertex_count();
  metrics.conflict_count = graph.edge_count();
  for (int v = 0; v < graph.vertex_count(); ++v) {
    int degree = graph.Degree(v);
    metrics.max_degree = std::max(metrics.max_degree, degree);
    if (degree > 0) ++metrics.conflicting_tuple_count;
  }

  const ComponentDecomposition& decomposition = graph.decomposition();
  int isolated = decomposition.isolated().Count();
  metrics.component_count =
      static_cast<int>(decomposition.components().size()) + isolated;
  metrics.largest_component = isolated > 0 ? 1 : 0;
  for (const GraphComponent& component : decomposition.components()) {
    metrics.largest_component = std::max(
        metrics.largest_component, static_cast<int>(component.vertices.size()));
  }
  MisSizeRange sizes = *MaskedMisSizeRange(
      decomposition, DynamicBitset::AllSet(graph.vertex_count()));
  metrics.repair_count = sizes.count;
  metrics.min_repair_size = static_cast<int>(sizes.lo);
  metrics.max_repair_size = static_cast<int>(sizes.hi);

  if (priority != nullptr) {
    for (auto [u, v] : graph.edges()) {
      if (priority->Dominates(u, v) || priority->Dominates(v, u)) {
        ++metrics.oriented_conflicts;
      }
    }
  }
  return metrics;
}

}  // namespace prefrep
