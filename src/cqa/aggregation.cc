#include "cqa/aggregation.h"

#include <algorithm>
#include <limits>
#include <new>

#include "base/exec_context.h"
#include "graph/mis.h"

namespace prefrep {

std::string_view AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kAvg:
      return "AVG";
  }
  return "?";
}

std::string AggregateRange::ToString() const {
  if (!has_value) {
    return empty_possible ? "[empty]" : "[undefined]";
  }
  std::string out = "[" + std::to_string(lo) + ", " + std::to_string(hi) +
                    "]";
  if (empty_possible) out += " (empty possible)";
  return out;
}

namespace {

// The aggregate of one repair restricted to `relation_mask`, or nullopt
// semantics via `defined=false` when the input is empty.
struct RepairAggregate {
  bool defined = false;
  double value = 0;
};

RepairAggregate AggregateOfRepair(const RepairProblem& problem,
                                  const DynamicBitset& repair,
                                  const DynamicBitset& relation_mask,
                                  int attribute, AggregateFunction fn,
                                  DynamicBitset& rows) {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min_v = std::numeric_limits<int64_t>::max();
  int64_t max_v = std::numeric_limits<int64_t>::min();
  // `rows` is caller-provided scratch: the repair enumeration loop calls
  // this once per repair and must stay allocation-free.
  rows.AssignAnd(repair, relation_mask);
  RepairAggregate out;
  if (fn == AggregateFunction::kCount) {
    // COUNT(*) must not touch attribute values: `attribute` is a dummy
    // index and may name a non-numeric column.
    out.defined = true;
    out.value = static_cast<double>(rows.Count());
    return out;
  }
  ForEachSetBit(rows, [&](int id) {
    int64_t v = problem.db().TupleOf(id).value(attribute).number();
    ++count;
    sum += v;
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  });
  if (count == 0) return out;  // MIN/MAX/SUM/AVG of an empty input
  out.defined = true;
  switch (fn) {
    case AggregateFunction::kMin:
      out.value = static_cast<double>(min_v);
      break;
    case AggregateFunction::kMax:
      out.value = static_cast<double>(max_v);
      break;
    case AggregateFunction::kSum:
      out.value = static_cast<double>(sum);
      break;
    case AggregateFunction::kAvg:
      out.value = static_cast<double>(sum) / static_cast<double>(count);
      break;
    case AggregateFunction::kCount:
      break;  // handled above
  }
  return out;
}

}  // namespace

Result<AggregateRange> AggregateConsistentRange(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, std::string_view relation,
    std::string_view attribute, AggregateFunction fn,
    const ParallelOptions& options) try {
  ExecutionContext* context = options.context;
  PREFREP_ASSIGN_OR_RETURN(const Relation* rel,
                           problem.db().relation(relation));
  int attr = 0;
  if (fn == AggregateFunction::kCount) {
    // COUNT(*): the attribute is irrelevant; use 0.
  } else {
    PREFREP_ASSIGN_OR_RETURN(attr,
                             rel->schema().AttributeIndex(attribute));
    if (rel->schema().attribute(attr).type != ValueType::kNumber) {
      return Status::InvalidArgument("aggregate over non-numeric attribute '" +
                                     std::string(attribute) + "'");
    }
  }

  PREFREP_ASSIGN_OR_RETURN(int rel_index,
                           problem.db().RelationIndex(relation));
  DynamicBitset relation_mask = problem.db().RelationMask(rel_index);

  AggregateRange range;
  DynamicBitset rows_scratch(problem.graph().vertex_count());
  EnumeratePreferredRepairs(
      problem.graph(), priority, family, options,
      [&](const DynamicBitset& repair) {
        if (context != nullptr) {
          if (context->ShouldStop()) return false;
          context->stats().AddRepairsExamined();
        }
        RepairAggregate agg = AggregateOfRepair(problem, repair, relation_mask,
                                                attr, fn, rows_scratch);
        if (!agg.defined) {
          range.empty_possible = true;
          return true;
        }
        if (!range.has_value) {
          range.has_value = true;
          range.lo = range.hi = agg.value;
        } else {
          range.lo = std::min(range.lo, agg.value);
          range.hi = std::max(range.hi, agg.value);
        }
        return true;
      });
  // A range computed from a prefix of the repair space is not a range at
  // all — surface the interrupt instead of a too-narrow [lo, hi].
  if (context != nullptr && context->interrupted()) {
    return context->StatusWithStats();
  }
  return range;
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted(
      "allocation failed during aggregate range enumeration");
}

Result<AggregateRange> CountStarRange(const RepairProblem& problem,
                                      std::string_view relation,
                                      ExecutionContext* context) {
  PREFREP_ASSIGN_OR_RETURN(int rel_index,
                           problem.db().RelationIndex(relation));
  DynamicBitset relation_mask = problem.db().RelationMask(rel_index);

  // Repairs decompose over connected components; the minimum (maximum)
  // repair size restricted to the relation is the sum of per-component
  // minima (maxima).
  AggregateRange range;
  range.has_value = true;
  int64_t lo = 0;
  int64_t hi = 0;
  for (const std::vector<int>& component :
       problem.graph().ConnectedComponents()) {
    if (context != nullptr && context->ShouldStop()) {
      return context->StatusWithStats();
    }
    if (component.size() == 1) {
      // Isolated tuple: present in every repair.
      if (relation_mask.Test(component[0])) {
        ++lo;
        ++hi;
      }
      continue;
    }
    int comp_min = std::numeric_limits<int>::max();
    int comp_max = 0;
    for (const DynamicBitset& mis :
         ComponentMaximalIndependentSets(problem.graph(), component,
                                         context)) {
      int size = mis.IntersectionCount(relation_mask);
      comp_min = std::min(comp_min, size);
      comp_max = std::max(comp_max, size);
    }
    // An interrupted MIS search returns a truncated list whose min/max
    // say nothing about the component.
    if (context != nullptr && context->interrupted()) {
      return context->StatusWithStats();
    }
    if (context != nullptr) context->stats().AddComponentsCompleted();
    lo += comp_min;
    hi += comp_max;
  }
  range.lo = static_cast<double>(lo);
  range.hi = static_cast<double>(hi);
  return range;
}

}  // namespace prefrep
