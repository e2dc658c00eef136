#include "core/properties.h"

#include <algorithm>

namespace prefrep {

namespace {

bool IsSubsetOfFamily(const std::vector<DynamicBitset>& inner,
                      const std::vector<DynamicBitset>& outer) {
  for (const DynamicBitset& r : inner) {
    if (std::find(outer.begin(), outer.end(), r) == outer.end()) return false;
  }
  return true;
}

}  // namespace

Result<bool> SatisfiesNonEmptiness(const ConflictGraph& graph,
                                   const Priority& priority,
                                   RepairFamily family) {
  bool found = false;
  PREFREP_RETURN_IF_ERROR(ForEachPreferredRepair(
      graph, priority, family, {}, [&found](int, const DynamicBitset&) {
        found = true;
        return false;  // one witness suffices
      }));
  return found;
}

Result<bool> SatisfiesMonotonicityFor(const ConflictGraph& graph,
                                      const Priority& weaker,
                                      const Priority& stronger,
                                      RepairFamily family) {
  if (!weaker.IsExtendedBy(stronger)) {
    return Status::FailedPrecondition(
        "second priority does not extend the first");
  }
  PREFREP_ASSIGN_OR_RETURN(std::vector<DynamicBitset> narrow,
                           PreferredRepairs(graph, stronger, family));
  PREFREP_ASSIGN_OR_RETURN(std::vector<DynamicBitset> wide,
                           PreferredRepairs(graph, weaker, family));
  return IsSubsetOfFamily(narrow, wide);
}

Result<bool> SatisfiesNonDiscrimination(const ConflictGraph& graph,
                                        RepairFamily family) {
  Priority empty = Priority::Empty(graph);
  PREFREP_ASSIGN_OR_RETURN(std::vector<DynamicBitset> preferred,
                           PreferredRepairs(graph, empty, family));
  PREFREP_ASSIGN_OR_RETURN(
      std::vector<DynamicBitset> all,
      PreferredRepairs(graph, empty, RepairFamily::kAll));
  return preferred.size() == all.size() && IsSubsetOfFamily(preferred, all);
}

Result<bool> SatisfiesCategoricityFor(const ConflictGraph& graph,
                                      const Priority& total,
                                      RepairFamily family) {
  if (!total.IsTotalFor(graph)) {
    return Status::FailedPrecondition("priority is not total for the graph");
  }
  PREFREP_ASSIGN_OR_RETURN(std::vector<DynamicBitset> repairs,
                           PreferredRepairs(graph, total, family));
  return repairs.size() == 1;
}

Result<bool> FamilyContainedIn(const ConflictGraph& graph,
                               const Priority& priority, RepairFamily inner,
                               RepairFamily outer) {
  PREFREP_ASSIGN_OR_RETURN(std::vector<DynamicBitset> inner_repairs,
                           PreferredRepairs(graph, priority, inner));
  PREFREP_ASSIGN_OR_RETURN(std::vector<DynamicBitset> outer_repairs,
                           PreferredRepairs(graph, priority, outer));
  return IsSubsetOfFamily(inner_repairs, outer_repairs);
}

}  // namespace prefrep
