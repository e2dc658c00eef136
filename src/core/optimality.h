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
// The four checks themselves sit behind IsPreferredRepair (core/families.h),
// which first checks that the priority was built over the graph. This
// header keeps the ≪ lifting they share with the G-Rep certificate.

#ifndef PREFREP_CORE_OPTIMALITY_H_
#define PREFREP_CORE_OPTIMALITY_H_

#include <vector>

#include "base/bitset.h"
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

// G among a pre-materialized repair set: no other member r'' of `repairs`
// with repair ≪ r''. The G-Rep list certificate (core/families.cc) runs it
// once per repair of a component's complete list.
[[nodiscard]] bool IsGloballyOptimalAmong(
    const Priority& priority, const DynamicBitset& repair,
    const std::vector<DynamicBitset>& repairs);

}  // namespace prefrep

#endif  // PREFREP_CORE_OPTIMALITY_H_
