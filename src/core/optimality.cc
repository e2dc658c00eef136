#include "core/optimality.h"

#include "graph/components.h"
#include "graph/mis.h"

namespace prefrep {

bool IsPreferredOver(const Priority& priority, const DynamicBitset& r1,
                     const DynamicBitset& r2) {
  DynamicBitset only_r1(r1.size());
  DynamicBitset only_r2(r1.size());
  return IsPreferredOver(priority, r1, r2, only_r1, only_r2);
}

bool IsPreferredOver(const Priority& priority, const DynamicBitset& r1,
                     const DynamicBitset& r2, DynamicBitset& only_r1,
                     DynamicBitset& only_r2) {
  only_r1.AssignDifference(r1, r2);
  only_r2.AssignDifference(r2, r1);
  bool all_dominated = true;
  ForEachSetBit(only_r1, [&](int x) {
    if (all_dominated && !priority.DominatorsOf(x).Intersects(only_r2)) {
      all_dominated = false;
    }
  });
  return all_dominated;
}

bool IsLocallyOptimal(const ConflictGraph& graph, const Priority& priority,
                      const DynamicBitset& repair) {
  DCHECK(graph.IsMaximalIndependent(repair));
  int n = graph.vertex_count();
  DynamicBitset inside(n);
  for (int y = 0; y < n; ++y) {
    if (repair.Test(y)) continue;
    // (r' \ {x}) ∪ {y} is consistent iff y's only neighbor inside r' is x.
    inside.AssignAnd(graph.Neighbors(y), repair);
    int x = inside.FirstSetBit();
    if (x < 0) continue;  // cannot happen for maximal repairs
    if (inside.NextSetBit(x + 1) >= 0) continue;  // more than one neighbor
    if (priority.Dominates(y, x)) return false;
  }
  return true;
}

bool IsSemiGloballyOptimal(const ConflictGraph& graph,
                           const Priority& priority,
                           const DynamicBitset& repair) {
  DCHECK(graph.IsMaximalIndependent(repair));
  int n = graph.vertex_count();
  DynamicBitset inside(n);
  for (int y = 0; y < n; ++y) {
    if (repair.Test(y)) continue;
    // X must equal n(y) ∩ r' (smaller X leaves a conflict with y; larger X
    // adds tuples y does not conflict with, which y cannot dominate).
    inside.AssignAnd(graph.Neighbors(y), repair);
    if (inside.None()) continue;
    if (inside.IsSubsetOf(priority.DominatedBy(y))) return false;
  }
  return true;
}

bool IsGloballyOptimal(const ConflictGraph& graph, const Priority& priority,
                       const DynamicBitset& repair) {
  DCHECK(graph.IsMaximalIndependent(repair));
  // A ≪-witness narrows to one component: take it on one component where
  // it differs from `repair` and `repair` elsewhere. Every tuple dropped
  // lies in that component, and its dominator there (arcs never cross
  // components) is kept. So each component's repairs are searched under
  // its projected priority, never the product of them.
  ComponentDecomposition decomposition(graph);
  std::vector<Priority> local = ProjectPriorities(decomposition, priority);
  for (size_t c = 0; c < local.size(); ++c) {
    const ConflictGraph& component = decomposition.components()[c].graph;
    DynamicBitset mine(component.vertex_count());
    decomposition.Gather(static_cast<int>(c), repair, mine);
    DynamicBitset scratch1(component.vertex_count());
    DynamicBitset scratch2(component.vertex_count());
    bool found_witness = false;
    MisEngine(component).Enumerate([&](const DynamicBitset& other) {
      found_witness = other != mine && IsPreferredOver(local[c], mine, other,
                                                       scratch1, scratch2);
      return !found_witness;
    });
    if (found_witness) return false;
  }
  return true;
}

bool IsGloballyOptimalAmong(const Priority& priority,
                            const DynamicBitset& repair,
                            const std::vector<DynamicBitset>& repairs) {
  DynamicBitset scratch1(repair.size());
  DynamicBitset scratch2(repair.size());
  for (const DynamicBitset& other : repairs) {
    if (other == repair) continue;
    if (IsPreferredOver(priority, repair, other, scratch1, scratch2)) {
      return false;
    }
  }
  return true;
}

bool IsCommonRepair(const ConflictGraph& graph, const Priority& priority,
                    const DynamicBitset& repair) {
  DCHECK(graph.IsMaximalIndependent(repair));
  int n = graph.vertex_count();
  DynamicBitset remaining = DynamicBitset::AllSet(n);
  DynamicBitset to_pick = repair;
  DynamicBitset winnow(n);
  DynamicBitset picks(n);
  DynamicBitset neighbors(n);
  while (true) {
    WinnowInto(priority, remaining, winnow);
    picks.AssignAnd(winnow, to_pick);
    if (picks.None()) break;
    // Picking any x ∈ ω≻(r) ∩ r' keeps every other such candidate valid
    // (members of r' are pairwise non-conflicting and removals only shrink
    // domination), so all candidates can be consumed in one batch.
    to_pick.Subtract(picks);
    remaining.Subtract(picks);
    graph.NeighborsOfSetInto(picks, neighbors);
    remaining.Subtract(neighbors);
  }
  return remaining.None();
}

}  // namespace prefrep
