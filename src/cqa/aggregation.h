// Range-consistent answers to scalar aggregation queries.
//
// The paper's future work points at Arenas et al., "Scalar Aggregation in
// Inconsistent Databases" (TCS 296(3), 2003) [2]: under repair semantics a
// scalar aggregate does not have a single consistent value; the meaningful
// answer is the RANGE [glb, lub] of the aggregate across (preferred)
// repairs. This module computes exact ranges for MIN / MAX / SUM / COUNT /
// AVG of a numeric column over any preferred-repair family, plus a
// polynomial per-component algorithm for COUNT(*) ranges under plain Rep.
//
// Preferences narrow ranges: since X-Rep ⊆ Rep, the X-range is always
// contained in the Rep-range (tested in tests/aggregation_test.cc).

#ifndef PREFREP_CQA_AGGREGATION_H_
#define PREFREP_CQA_AGGREGATION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"
#include "base/thread_pool.h"
#include "core/families.h"
#include "priority/priority.h"
#include "repair/repair.h"

namespace prefrep {

enum class AggregateFunction { kMin, kMax, kSum, kCount, kAvg };

std::string_view AggregateFunctionName(AggregateFunction fn);

// An inclusive range of aggregate values across the preferred repairs.
// For kAvg the bounds are exact rationals rendered as doubles; for the
// integer aggregates lo/hi are exact.
struct AggregateRange {
  // True iff some preferred repair has an empty aggregation input (e.g.
  // MIN over a relation whose tuples can all be conflicted away). Such
  // repairs contribute no value to [lo, hi].
  bool empty_possible = false;
  // Meaningless when no repair produced a value (all inputs empty).
  bool has_value = false;
  double lo = 0;
  double hi = 0;

  // "[lo, hi]" (+ " (empty possible)").
  std::string ToString() const;
};

// Exact range of `fn` applied to attribute `attribute` of relation
// `relation` across all repairs of `family` under `priority`.
// Exponential in the number of preferred repairs (co-NP-hard in general,
// per [2]); intended for moderate instances. The planner's enumeration
// tier: callers go through PlannedAggregateRange (cqa/planner.h).
// `options.context`, when set, is polled once per repair; expiry/cancel
// surfaces as the context's latched kCancelled / kDeadlineExceeded status.
Result<AggregateRange> AggregateConsistentRange(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, std::string_view relation,
    std::string_view attribute, AggregateFunction fn,
    const ParallelOptions& options = {});

// Polynomial special case: the COUNT(*) range of `relation` under plain
// Rep. Repair sizes decompose over connected components of the conflict
// graph: the range is the sum of per-component [min, max] maximal-
// independent-set sizes restricted to the relation. `context`, when set,
// is polled per component (and inside the per-component MIS search).
Result<AggregateRange> CountStarRange(const RepairProblem& problem,
                                      std::string_view relation,
                                      ExecutionContext* context = nullptr);

}  // namespace prefrep

#endif  // PREFREP_CQA_AGGREGATION_H_
