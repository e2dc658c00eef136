#include "cqa/cqa.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <utility>

#include "base/exec_context.h"
#include "base/failpoint.h"
#include "query/normal_form.h"
#include "query/prepared.h"

namespace prefrep {

namespace {

// Drops from `keep` every row not also in `other`. Each worker's running
// intersection and the merge of the workers' partials both go through
// this one helper, so the sharded answer set is provably the serial one.
void IntersectInPlace(std::set<Tuple>* keep, const std::set<Tuple>& other) {
  for (auto it = keep->begin(); it != keep->end();) {
    it = other.contains(*it) ? std::next(it) : keep->erase(it);
  }
}

// One copy of the compiled query per walk worker; the last takes over
// `prepared` itself, so a serial walk copies nothing.
std::vector<PreparedQuery> WorkerQueries(PreparedQuery prepared, int threads) {
  std::vector<PreparedQuery> queries(
      static_cast<size_t>(std::max(1, threads)) - 1, prepared);
  queries.push_back(std::move(prepared));
  return queries;
}

}  // namespace

std::string_view CqaVerdictName(CqaVerdict verdict) {
  switch (verdict) {
    case CqaVerdict::kCertainlyTrue:
      return "certainly-true";
    case CqaVerdict::kCertainlyFalse:
      return "certainly-false";
    case CqaVerdict::kUndetermined:
      return "undetermined";
  }
  return "?";
}

Result<CqaVerdict> EnumeratedConsistentAnswer(const RepairProblem& problem,
                                              const Priority& priority,
                                              RepairFamily family,
                                              PreparedQuery prepared,
                                              const EvalOptions& options) try {
  if (!prepared.is_closed()) {
    return Status::InvalidArgument(
        "consistent answers need a closed query (prepared query has free "
        "variables)");
  }
  // Outcome bits (1: a satisfying repair, 2: a falsifying one) OR into one
  // shared mask, so the verdict is independent of which worker saw what;
  // once both are set no repair can change it and every worker stops.
  std::vector<PreparedQuery> queries =
      WorkerQueries(std::move(prepared), options.threads);
  std::vector<Status> errors(queries.size(), Status::Ok());
  std::atomic<uint32_t> seen{0};
  PREFREP_RETURN_IF_ERROR(ForEachPreferredRepair(
      problem.graph(), priority, family, options,
      [&](int worker, const DynamicBitset& repair) {
        Result<bool> holds = queries[worker].EvalClosed(&repair);
        if (!holds.ok()) {
          errors[worker] = holds.status();
          return false;
        }
        const uint32_t bit = *holds ? 1u : 2u;
        return (seen.fetch_or(bit, std::memory_order_relaxed) | bit) != 3u;
      }));
  for (const Status& error : errors) PREFREP_RETURN_IF_ERROR(error);
  switch (seen.load(std::memory_order_relaxed)) {
    case 3u:
      return CqaVerdict::kUndetermined;
    case 2u:
      return CqaVerdict::kCertainlyFalse;
    default:
      // All repairs satisfy Q (or the family was empty, which
      // P1-families never are; vacuously true then).
      return CqaVerdict::kCertainlyTrue;
  }
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted("allocation failed during enumerated CQA");
}

Result<OpenAnswer> EnumeratedConsistentAnswers(const RepairProblem& problem,
                                               const Priority& priority,
                                               RepairFamily family,
                                               PreparedQuery prepared,
                                               const EvalOptions& options) try {
  // Each worker intersects the answer sets of the repairs it visits; set
  // intersection is commutative and associative, so intersecting the
  // partials in any order equals the serial running intersection. A
  // partial that empties proves the answer empty and stops the walk (the
  // merge then comes out empty too).
  struct Partial {
    std::set<Tuple> rows;
    bool any = false;
  };
  std::vector<PreparedQuery> queries =
      WorkerQueries(std::move(prepared), options.threads);
  std::vector<Status> errors(queries.size(), Status::Ok());
  std::vector<Partial> partials(queries.size());
  PREFREP_RETURN_IF_ERROR(ForEachPreferredRepair(
      problem.graph(), priority, family, options,
      [&](int worker, const DynamicBitset& repair) {
        Result<OpenAnswer> answer = queries[worker].EvalOpen(&repair);
        if (!answer.ok()) {
          errors[worker] = answer.status();
          return false;
        }
        Partial& mine = partials[worker];
        if (!mine.any) {
          mine.rows.insert(answer->rows.begin(), answer->rows.end());
          mine.any = true;
        } else {
          IntersectInPlace(&mine.rows, std::set<Tuple>(answer->rows.begin(),
                                                       answer->rows.end()));
        }
        return !mine.rows.empty();
      }));
  for (const Status& error : errors) PREFREP_RETURN_IF_ERROR(error);
  // An empty family visits no repair: no rows and no variables.
  OpenAnswer out;
  std::optional<std::set<Tuple>> certain;
  for (Partial& partial : partials) {
    if (!partial.any) continue;
    if (!certain.has_value()) {
      certain = std::move(partial.rows);
    } else {
      IntersectInPlace(&*certain, partial.rows);
    }
  }
  if (certain.has_value()) {
    out.variables = queries[0].free_variables();
    out.rows.assign(certain->begin(), certain->end());
  }
  return out;
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted("allocation failed during enumerated CQA");
}

namespace {

// Decides whether some repair satisfies the ground disjunct: it must
// contain all positive facts, avoid all negative ones, and all constant
// comparisons must hold.
Result<bool> DisjunctSatisfiableBySomeRepair(const RepairProblem& problem,
                                             const GroundDisjunct& disjunct) {
  const ConflictGraph& graph = problem.graph();
  int n = graph.vertex_count();

  DynamicBitset required(n);   // positive facts (must be in the repair)
  std::vector<TupleId> excluded;  // facts that must be out

  for (const GroundLiteral& lit : disjunct) {
    if (!lit.is_atom) {
      if (!lit.ComparisonHolds()) return false;
      continue;
    }
    auto id = problem.db().FindTuple(lit.relation, lit.tuple);
    if (lit.positive) {
      // A fact not in the database is in no repair.
      if (!id.ok()) return false;
      required.Set(*id);
    } else {
      // A fact not in the database is absent from every repair: trivially
      // satisfied.
      if (id.ok()) excluded.push_back(*id);
    }
  }

  // The positive part must be conflict-free.
  if (!graph.IsIndependent(required)) return false;

  // Every excluded fact must be kept out of a *maximal* independent set
  // containing `required`, i.e. blocked by a conflicting witness in the
  // repair. A fact both required and excluded is contradictory.
  std::sort(excluded.begin(), excluded.end());
  excluded.erase(std::unique(excluded.begin(), excluded.end()),
                 excluded.end());
  std::vector<TupleId> need_witness;
  for (TupleId s : excluded) {
    if (required.Test(s)) return false;
    if (graph.Neighbors(s).Intersects(required)) continue;  // already blocked
    need_witness.push_back(s);
  }

  // Backtracking over witness choices w_s ∈ n(s): the witnesses must be
  // mutually consistent and consistent with the required facts, and must
  // not be excluded facts themselves. The search depth is the number of
  // negative literals (fixed with the query), so this is data-polynomial.
  // Candidate masks come from a pooled scratch buffer per search level, so
  // the backtracking itself stays off the heap.
  DynamicBitset excluded_mask(n);
  for (TupleId s : excluded) excluded_mask.Set(s);

  BitsetPool pool(n);
  std::function<bool(size_t, DynamicBitset&)> search =
      [&](size_t index, DynamicBitset& chosen) -> bool {
    if (index == need_witness.size()) return true;
    TupleId s = need_witness[index];
    if (graph.Neighbors(s).Intersects(chosen)) {
      // Already blocked by a previously chosen witness.
      return search(index + 1, chosen);
    }
    BitsetPool::Handle candidates = pool.Acquire();
    candidates->AssignDifference(graph.Neighbors(s), excluded_mask);
    for (int w = candidates->FirstSetBit(); w >= 0;
         w = candidates->NextSetBit(w + 1)) {
      // The witness must not conflict with anything selected so far.
      if (graph.Neighbors(w).Intersects(chosen)) continue;
      chosen.Set(w);
      if (search(index + 1, chosen)) return true;
      chosen.Reset(w);
    }
    return false;
  };

  DynamicBitset chosen = required;
  return search(0, chosen);
}

// The certainty test both ground engines share: `true` is the consistent
// answer iff no repair satisfies any disjunct of the negated query's DNF.
// `context` is polled once per disjunct; an interrupt returns its status.
Result<bool> NoRepairSatisfiesAnyDisjunct(
    const RepairProblem& problem, const std::vector<GroundDisjunct>& dnf,
    ExecutionContext* context) {
  for (const GroundDisjunct& disjunct : dnf) {
    PREFREP_FAILPOINT("cqa.ground_disjunct");
    if (context != nullptr && context->ShouldStop()) {
      return context->StatusWithStats();
    }
    PREFREP_ASSIGN_OR_RETURN(
        bool satisfiable, DisjunctSatisfiableBySomeRepair(problem, disjunct));
    if (satisfiable) return false;
  }
  return true;
}

}  // namespace

Result<bool> GroundConsistentAnswer(const RepairProblem& problem,
                                    const Query& query,
                                    const EvalOptions& options) {
  PREFREP_RETURN_IF_ERROR(ValidateQuery(problem.db(), query));
  if (!query.IsGround() || !query.IsQuantifierFree()) {
    return Status::InvalidArgument(
        "GroundConsistentAnswer handles ground quantifier-free queries; "
        "use PlannedConsistentAnswer for " +
        query.ToString());
  }
  EvalContextScope scope(options);
  const ExecutionLimits& limits = scope.options().EffectiveLimits();
  std::unique_ptr<Query> negated = Query::Not(query.Clone());
  PREFREP_ASSIGN_OR_RETURN(
      std::vector<GroundDisjunct> dnf,
      GroundDnf(*negated, limits.max_dnf_disjuncts, limits.max_dnf_literals));
  return NoRepairSatisfiesAnyDisjunct(problem, dnf, scope.context());
}

Result<OpenAnswer> GroundConsistentOpenAnswers(const RepairProblem& problem,
                                               const Query& query,
                                               const EvalOptions& options) {
  if (!query.IsQuantifierFree()) {
    return Status::InvalidArgument(
        "GroundConsistentOpenAnswers needs a quantifier-free query");
  }
  if (!IsNegationFree(query)) {
    return Status::InvalidArgument(
        "GroundConsistentOpenAnswers needs a negation-free (monotone) "
        "query; use PlannedConsistentAnswers");
  }
  // Candidates: answers over the full database (a superset of every
  // repair's answers, by monotonicity).
  PREFREP_ASSIGN_OR_RETURN(PreparedQuery prepared,
                           PreparedQuery::Compile(problem.db(), query));
  PREFREP_ASSIGN_OR_RETURN(OpenAnswer candidates, prepared.EvalOpen(nullptr));
  // Loop-invariant skeleton: the negated query's DNF is computed once;
  // each candidate row only substitutes its bindings into the disjunct
  // templates (instead of re-cloning, re-NNFing and re-DNFing the query
  // per row).
  EvalContextScope scope(options);
  ExecutionContext* context = scope.context();
  const ExecutionLimits& limits = scope.options().EffectiveLimits();
  std::unique_ptr<Query> negated = Query::Not(query.Clone());
  PREFREP_ASSIGN_OR_RETURN(
      std::vector<DisjunctTemplate> negated_dnf,
      QuantifierFreeDnf(*negated, limits.max_dnf_disjuncts,
                        limits.max_dnf_literals));
  OpenAnswer certain;
  certain.variables = candidates.variables;
  std::map<std::string, Value> bindings;
  std::vector<GroundDisjunct> ground_dnf(negated_dnf.size());
  for (const Tuple& row : candidates.rows) {
    if (context != nullptr && context->ShouldStop()) {
      return context->StatusWithStats();
    }
    bindings.clear();
    for (size_t i = 0; i < certain.variables.size(); ++i) {
      bindings.emplace(certain.variables[i],
                       row.value(static_cast<int>(i)));
    }
    for (size_t d = 0; d < negated_dnf.size(); ++d) {
      PREFREP_ASSIGN_OR_RETURN(ground_dnf[d],
                               InstantiateDisjunct(negated_dnf[d], bindings));
    }
    PREFREP_ASSIGN_OR_RETURN(
        bool is_certain,
        NoRepairSatisfiesAnyDisjunct(problem, ground_dnf, context));
    if (is_certain) certain.rows.push_back(row);
  }
  return certain;
}

Result<CqaVerdict> GroundConsistentVerdict(const RepairProblem& problem,
                                           const Query& query,
                                           const EvalOptions& options) {
  EvalContextScope scope(options);
  PREFREP_ASSIGN_OR_RETURN(
      bool certainly_true,
      GroundConsistentAnswer(problem, query, scope.options()));
  if (certainly_true) return CqaVerdict::kCertainlyTrue;
  std::unique_ptr<Query> negated = Query::Not(query.Clone());
  PREFREP_ASSIGN_OR_RETURN(
      bool certainly_false,
      GroundConsistentAnswer(problem, *negated, scope.options()));
  if (certainly_false) return CqaVerdict::kCertainlyFalse;
  return CqaVerdict::kUndetermined;
}

}  // namespace prefrep
