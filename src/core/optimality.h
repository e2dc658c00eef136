// Repair-optimality notions (§3): the heart of the paper.
//
// Given a conflict graph, a priority and a repair r', the paper defines
// three increasingly aggressive ways a priority can disqualify r':
//
//   locally optimal      — no single tuple x ∈ r' can be traded for a
//                          dominating tuple y ≻ x keeping consistency;
//   semi-globally optimal— no tuple set X ⊆ r' can be traded for a single
//                          y dominating all of X;
//   globally optimal     — no tuple set can be traded for a set Y covering
//                          it through domination; equivalently (Prop. 5)
//                          r' is ≪-maximal among repairs.
//
// plus the *common repairs* (Thm. 1 / Prop. 7): repairs produced by every
// run of Algorithm 1, checkable in PTIME by a greedy simulation.
//
// All functions expect `repair` to satisfy graph.IsMaximalIndependent().

#ifndef PREFREP_CORE_OPTIMALITY_H_
#define PREFREP_CORE_OPTIMALITY_H_

#include <vector>

#include "base/bitset.h"
#include "graph/conflict_graph.h"
#include "priority/priority.h"

namespace prefrep {

// Proposition 5's lifting: r1 ≪ r2 ("r2 is preferred over r1") iff every
// x ∈ r1 \ r2 is dominated by some y ∈ r2 \ r1. Vacuously true when
// r1 ⊆ r2 (for distinct repairs the difference is never empty).
[[nodiscard]] bool IsPreferredOver(const Priority& priority,
                                   const DynamicBitset& r1,
                                   const DynamicBitset& r2);

// Allocation-free form for certificate loops: `only_r1` and `only_r2` are
// caller-provided scratch buffers over the same universe (their contents
// are overwritten). The G-Rep quadratic certification pass calls this
// once per repair pair.
[[nodiscard]] bool IsPreferredOver(const Priority& priority,
                                   const DynamicBitset& r1,
                                   const DynamicBitset& r2,
                                   DynamicBitset& only_r1,
                                   DynamicBitset& only_r2);

// L: no x ∈ r' and y ∈ r \ r' with y ≻ x and (r' \ {x}) ∪ {y} consistent.
// PTIME (Theorem 4).
[[nodiscard]] bool IsLocallyOptimal(const ConflictGraph& graph,
                                    const Priority& priority,
                                    const DynamicBitset& repair);

// S: no nonempty X ⊆ r' and y with ∀x∈X. y ≻ x and (r' \ X) ∪ {y}
// consistent. Equivalently: no y outside r' dominating all its neighbors
// in r' (§4.2). PTIME (Corollary 1).
[[nodiscard]] bool IsSemiGloballyOptimal(const ConflictGraph& graph,
                                         const Priority& priority,
                                         const DynamicBitset& repair);

// G via Prop. 5: no repair r'' != r' with r' ≪ r''. A witness narrows to
// one conflict component, so the search runs a MisEngine per component
// under its projected priority: exponential in the largest component, not
// in the whole repair space (co-NP-complete in general, Theorem 5). The
// repair-checking API.
[[nodiscard]] bool IsGloballyOptimal(const ConflictGraph& graph,
                                     const Priority& priority,
                                     const DynamicBitset& repair);

// G among a pre-materialized repair set (used when the caller already
// enumerated all repairs).
[[nodiscard]] bool IsGloballyOptimalAmong(
    const Priority& priority, const DynamicBitset& repair,
    const std::vector<DynamicBitset>& repairs);

// C via Prop. 7: simulates Algorithm 1 restricting the choices in Step 3
// to ω≻(r) ∩ r'. PTIME (Corollary 2).
[[nodiscard]] bool IsCommonRepair(const ConflictGraph& graph,
                                  const Priority& priority,
                                  const DynamicBitset& repair);

}  // namespace prefrep

#endif  // PREFREP_CORE_OPTIMALITY_H_
