#include "cqa/aggregation.h"

#include <algorithm>
#include <limits>
#include <new>
#include <vector>

#include "base/exec_context.h"
#include "cqa/cqa.h"
#include "graph/components.h"
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
  // A sum of int64 values can leave int64; the wider accumulator keeps
  // every such sum exact until the final rounding to double.
  __int128 sum = 0;
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
    const EvalOptions& options) try {
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

  // Each walk worker folds its repairs into its own range; min/max (and
  // the empty_possible OR) merge in any order, so the range is bit-for-bit
  // the same at every thread count.
  struct Partial {
    AggregateRange range;
    DynamicBitset rows;
  };
  std::vector<Partial> partials(
      static_cast<size_t>(std::max(1, options.threads)),
      Partial{{}, DynamicBitset(problem.graph().vertex_count())});
  const auto fold = [](AggregateRange& into, bool defined, double lo,
                       double hi) {
    if (!defined) return;
    into.lo = into.has_value ? std::min(into.lo, lo) : lo;
    into.hi = into.has_value ? std::max(into.hi, hi) : hi;
    into.has_value = true;
  };
  PREFREP_RETURN_IF_ERROR(ForEachPreferredRepair(
      problem.graph(), priority, family, options,
      [&](int worker, const DynamicBitset& repair) {
        Partial& mine = partials[worker];
        RepairAggregate agg = AggregateOfRepair(problem, repair, relation_mask,
                                                attr, fn, mine.rows);
        mine.range.empty_possible |= !agg.defined;
        fold(mine.range, agg.defined, agg.value, agg.value);
        return true;
      }));
  AggregateRange range;
  for (const Partial& partial : partials) {
    range.empty_possible |= partial.range.empty_possible;
    fold(range, partial.range.has_value, partial.range.lo, partial.range.hi);
  }
  return range;
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted(
      "allocation failed during aggregate range enumeration");
}

Result<AggregateRange> CountStarRange(const RepairProblem& problem,
                                      std::string_view relation,
                                      const EvalOptions& options) {
  PREFREP_ASSIGN_OR_RETURN(int rel_index,
                           problem.db().RelationIndex(relation));
  DynamicBitset relation_mask = problem.db().RelationMask(rel_index);

  // Repairs decompose over connected components; the minimum (maximum)
  // repair size restricted to the relation is the sum of per-component
  // minima (maxima).
  EvalContextScope scope(options);
  PREFREP_ASSIGN_OR_RETURN(
      MisSizeRange sizes,
      MaskedMisSizeRange(problem.graph().decomposition(), relation_mask,
                         scope.context()));
  AggregateRange range;
  range.has_value = true;
  range.lo = static_cast<double>(sizes.lo);
  range.hi = static_cast<double>(sizes.hi);
  return range;
}

}  // namespace prefrep
