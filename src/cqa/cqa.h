// Preferred consistent query answering (§2.3): the end-to-end API.
//
// For a closed query Q and a family X of preferred repairs, `true` is the
// X-consistent answer iff Q holds in every repair of X-Rep. We report a
// three-valued verdict: certainly true (holds in all), certainly false
// (holds in none), or undetermined (differs between preferred repairs).
//
// This header holds the engines; the user-facing entry points are the
// Planned* functions in cqa/planner.h, which pick between them per call.
// The tier-2 engines are folds over X-Rep: the verdict ORs "holds /
// fails", certain answers intersect per-repair answer sets, and aggregate
// ranges (cqa/aggregation.h) take min/max. All three fold over one walk,
// ForEachPreferredRepair (core/families.h), serial or sharded across the
// product of per-component family lists; this directory holds only the
// folds and the ground engines. For the family Rep and *ground
// quantifier-free* queries, GroundConsistentAnswer implements the
// polynomial conflict-graph algorithm (Chomicki–Marcinkowski; first row
// of Fig. 5).
//
// Every engine takes one EvalOptions; its context, deadline and limits
// govern the call as described in base/eval_options.h, so the DNF caps
// of the ground engines are EffectiveLimits()'s — the same two the
// planner's tier-1 admission check reads.

#ifndef PREFREP_CQA_CQA_H_
#define PREFREP_CQA_CQA_H_

#include <string_view>

#include "base/eval_options.h"
#include "base/status.h"
#include "core/families.h"
#include "priority/priority.h"
#include "query/ast.h"
#include "query/evaluator.h"
#include "query/prepared.h"
#include "repair/repair.h"

namespace prefrep {

enum class CqaVerdict {
  kCertainlyTrue,   // Q holds in every preferred repair
  kCertainlyFalse,  // Q holds in no preferred repair
  kUndetermined,    // Q differs between preferred repairs
};

std::string_view CqaVerdictName(CqaVerdict verdict);

// The tier-2 verdict engine, planner-free: evaluates the closed compiled
// query in every preferred repair, each walk worker on a private copy;
// the walk stops as soon as both a satisfying and a falsifying repair
// have been seen (one shared outcome mask, merged by OR). The planner's
// enumeration tier and, through a forced kEnumeration, the reference
// side of the differential tests. `prepared` must have been compiled
// against problem.db(); it is taken by value because evaluation reuses
// its internal scratch, so a caller sharing one cached master across
// concurrent calls passes it as an lvalue and each call works on a copy.
Result<CqaVerdict> EnumeratedConsistentAnswer(const RepairProblem& problem,
                                              const Priority& priority,
                                              RepairFamily family,
                                              PreparedQuery prepared,
                                              const EvalOptions& options = {});

// Tier-2 engine for open queries, planner-free; same contract for
// `prepared`. Each walk worker intersects the answer sets of the repairs
// it visits; the partials merge by the same intersection, so the answer
// set is the serial one. A worker whose partial empties proves the
// answer empty and stops the walk.
Result<OpenAnswer> EnumeratedConsistentAnswers(const RepairProblem& problem,
                                               const Priority& priority,
                                               RepairFamily family,
                                               PreparedQuery prepared,
                                               const EvalOptions& options = {});

// Polynomial-time consistent answers for ground quantifier-free queries
// under the plain Rep semantics: true iff the query holds in every repair.
// Negates the query, converts to DNF, and decides per disjunct whether
// some repair satisfies it via a bounded witness search over conflict
// neighborhoods (data-polynomial for a fixed query). An adversarially
// nested query whose DNF exceeds the effective max_dnf_disjuncts or
// max_dnf_literals fails with kResourceExhausted (the planner then falls
// back to enumeration). The context is polled once per disjunct (and per
// candidate row in the open form); expiry/cancel surfaces as its latched
// status.
Result<bool> GroundConsistentAnswer(const RepairProblem& problem,
                                    const Query& query,
                                    const EvalOptions& options = {});

// Full three-valued verdict computed with two GroundConsistentAnswer
// calls (on Q and not Q) under one context.
Result<CqaVerdict> GroundConsistentVerdict(const RepairProblem& problem,
                                           const Query& query,
                                           const EvalOptions& options = {});

// Polynomial consistent answers for *open* negation-free quantifier-free
// queries under plain Rep: the candidate answers are computed on the full
// (inconsistent) database — sound because negation-free queries are
// monotone — and each candidate's ground instantiation is certified with
// GroundConsistentAnswer.
Result<OpenAnswer> GroundConsistentOpenAnswers(
    const RepairProblem& problem, const Query& query,
    const EvalOptions& options = {});

}  // namespace prefrep

#endif  // PREFREP_CQA_CQA_H_
