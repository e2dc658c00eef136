// CQA planner: routes every consistent-query-answering call to the
// cheapest sound algorithm, falling back to the sharded enumeration
// engine when no shortcut applies.
//
// The classifier looks at four inputs — query shape (query/ast.h's
// QueryShape), repair family, priority shape, and instance shape — and
// picks a tier:
//
//   Tier 0, kSingleRepair: the database is conflict-free, so its unique
//     repair is the database itself for *every* family and priority.
//     CQA degenerates to one plain evaluation: no component
//     decomposition, no materialization, no product walk.
//   Tier 1, kGroundFastPath: the plan is Rep-equivalent — the requested
//     family is kAll, or the priority is empty and P3 collapses any
//     family to Rep (core/families.h EffectiveFamily) — and the query
//     fits a polynomial engine: closed ground quantifier-free queries go
//     to GroundConsistentVerdict (the paper's Fig. 5 first row),
//     quantifier-free negation-free open queries to
//     GroundConsistentOpenAnswers, and COUNT(*) aggregation to
//     CountStarRange. Data-polynomial; never enumerates repairs.
//   Tier 2, kEnumeration: the sharded repair-product engine
//     (EnumeratedConsistentAnswer[s], AggregateConsistentRange) — always
//     sound, exponential in the worst case.
//
// The Planned* functions below are THE consistent-query-answering entry
// points: one per answer kind (verdict, open answers, aggregate range),
// each taking one EvalOptions. They plan and execute, reporting the tier
// that actually ran (a stale precomputed tier-1 plan whose DNF blows the
// caps in force falls back to tier 2 at runtime). ExplainPlan exposes the
// decision without executing, so tests, benches, and the shell can
// assert which tier fires. The Session facade (server/session.h) adds caching on top.
//
// Equivalence of the tiers is pinned by the randomized differential
// suite in tests/planner_test.cc: planner-forced fast paths against
// planner-forced enumeration, across all five families, both priority
// kinds, and every query shape class.

#ifndef PREFREP_CQA_PLANNER_H_
#define PREFREP_CQA_PLANNER_H_

#include <string>
#include <string_view>

#include "base/eval_options.h"
#include "base/status.h"
#include "cqa/aggregation.h"
#include "cqa/cqa.h"
#include "core/families.h"
#include "priority/priority.h"
#include "query/ast.h"
#include "repair/repair.h"

namespace prefrep {

// CqaTier itself lives in base/eval_options.h (so the consolidated
// EvalOptions can carry force_tier below the cqa layer); this header is
// its documentation home and re-exports it by inclusion.

// "single-repair", "ground-fast-path", "enumeration".
std::string_view CqaTierName(CqaTier tier);

// Which entry point the plan is for: the two differ in what tier 1 can
// handle (a closed ground query has a polynomial verdict; an open query
// needs quantifier-freeness and monotonicity instead).
enum class CqaRequest {
  kVerdict,      // PlannedConsistentAnswer (closed query)
  kOpenAnswers,  // PlannedConsistentAnswers
};

struct CqaPlan {
  CqaTier tier = CqaTier::kEnumeration;
  RepairFamily requested_family = RepairFamily::kAll;
  // kAll when the priority is empty (P3), `requested_family` otherwise.
  // Tier 2 also executes under this: an empty priority makes the
  // optimality filters (G-Rep's quadratic certificate, C-Rep's memoized
  // walk) pure overhead, so the planner strips them.
  RepairFamily effective_family = RepairFamily::kAll;
  bool family_collapsed = false;  // effective_family != requested_family
  std::string reason;             // one-line routing rationale

  // E.g. "tier 1 (ground-fast-path): G-Rep collapsed to Rep (empty
  // priority); ground quantifier-free query".
  std::string ToString() const;
};

// Kept only for the serving benchmark in servebench/, whose sources are
// frozen; nothing else may use these names.
using CqaPlannerOptions = EvalOptions;
using ParallelOptions = EvalOptions;

// Classifies (query shape, family, priority shape, instance shape)
// without touching the repair space. Deterministic and cheap: the only
// non-O(query) work is the conflict-count check and, for would-be tier-1
// plans, the DNF conversion attempt (exponential in the fixed query
// size, capped by both DNF caps of options.EffectiveLimits(), the caps
// the ground engines then run under — never data-dependent).
CqaPlan ExplainPlan(const RepairProblem& problem, const Priority& priority,
                    RepairFamily family, const Query& query,
                    CqaRequest request, const EvalOptions& options = {});

// The X-consistent answer to a closed query (§2.3): certainly true,
// certainly false or undetermined across the preferred repairs of
// `family` under `priority`. `executed` (optional) receives the plan that
// actually ran, after any runtime fallback. The verdict is identical
// whichever tier fires (pinned by tests/planner_test.cc).
Result<CqaVerdict> PlannedConsistentAnswer(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, const Query& query, const EvalOptions& options = {},
    CqaPlan* executed = nullptr);

// Consistent answers to an open query: the assignments of its free
// variables satisfying it in every preferred repair (a closed query
// degenerates to the zero-variable answer set).
Result<OpenAnswer> PlannedConsistentAnswers(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, const Query& query, const EvalOptions& options = {},
    CqaPlan* executed = nullptr);

// Aggregation ranges: COUNT under a Rep-equivalent plan routes to the
// polynomial per-component CountStarRange; everything else enumerates via
// AggregateConsistentRange (under the effective family).
Result<AggregateRange> PlannedAggregateRange(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, std::string_view relation,
    std::string_view attribute, AggregateFunction fn,
    const EvalOptions& options = {}, CqaPlan* executed = nullptr);

}  // namespace prefrep

#endif  // PREFREP_CQA_PLANNER_H_
