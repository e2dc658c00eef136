// Preferred consistent query answering (§2.3): the end-to-end API.
//
// For a closed query Q and a family X of preferred repairs, `true` is the
// X-consistent answer iff Q holds in every repair of X-Rep. We report a
// three-valued verdict: certainly true (holds in all), certainly false
// (holds in none), or undetermined (differs between preferred repairs).
//
// This header holds the engines; the user-facing entry points are the
// Planned* functions in cqa/planner.h, which pick between them per call.
// The generic engine enumerates preferred repairs with two-sided
// short-circuiting; for the family Rep and *ground quantifier-free*
// queries, GroundConsistentAnswer implements the polynomial
// conflict-graph algorithm (Chomicki–Marcinkowski; first row of Fig. 5).

#ifndef PREFREP_CQA_CQA_H_
#define PREFREP_CQA_CQA_H_

#include <string_view>

#include "base/status.h"
#include "base/thread_pool.h"
#include "core/families.h"
#include "priority/priority.h"
#include "query/ast.h"
#include "query/evaluator.h"
#include "query/normal_form.h"
#include "query/prepared.h"
#include "repair/repair.h"

namespace prefrep {

enum class CqaVerdict {
  kCertainlyTrue,   // Q holds in every preferred repair
  kCertainlyFalse,  // Q holds in no preferred repair
  kUndetermined,    // Q differs between preferred repairs
};

std::string_view CqaVerdictName(CqaVerdict verdict);

// The tier-2 engine, planner-free: evaluates the closed compiled query in
// every preferred repair (enumeration stops as soon as both a satisfying
// and a falsifying repair have been seen). The planner's enumeration tier
// and, through a forced kEnumeration, the reference side of the
// differential tests. `prepared` must have been compiled against
// problem.db(); it is taken by value because evaluation reuses its
// internal scratch, so a caller sharing one cached master across
// concurrent calls passes it as an lvalue and each call works on a copy.
//
// options.threads > 1 shards the work two ways: per-component family
// lists are materialized by parallel workers (core/families.h), then the
// repair product is split into slices evaluated concurrently, each worker
// holding a private copy of the compiled query. Per-shard partial
// verdicts ("saw a satisfying / falsifying repair") merge by a
// commutative OR, so the verdict is identical to the serial result; a
// shared flag stops every shard once both outcomes have been observed.
Result<CqaVerdict> EnumeratedConsistentAnswer(const RepairProblem& problem,
                                              const Priority& priority,
                                              RepairFamily family,
                                              PreparedQuery prepared,
                                              ParallelOptions options = {});

// Tier-2 engine for open queries, planner-free; same contract for
// `prepared`.
//
// options.threads > 1 shards exactly like EnumeratedConsistentAnswer;
// each worker intersects the answer sets of its repair slice and the
// per-shard partial intersections combine by the same commutative set
// intersection, so the answer set is identical to the serial result. A
// shard whose partial intersection empties proves the global answer
// empty and stops the others.
Result<OpenAnswer> EnumeratedConsistentAnswers(const RepairProblem& problem,
                                               const Priority& priority,
                                               RepairFamily family,
                                               PreparedQuery prepared,
                                               ParallelOptions options = {});

// Polynomial-time consistent answers for ground quantifier-free queries
// under the plain Rep semantics: true iff the query holds in every repair.
// Negates the query, converts to DNF, and decides per disjunct whether
// some repair satisfies it via a bounded witness search over conflict
// neighborhoods (data-polynomial for a fixed query). An adversarially
// nested query whose DNF exceeds `max_dnf_disjuncts` fails with
// kResourceExhausted (the planner then falls back to enumeration).
//
// `context`, when set, clamps the DNF caps to its ExecutionLimits and is
// polled once per disjunct (and per candidate row in the open form);
// expiry/cancel surfaces as the context's latched status.
Result<bool> GroundConsistentAnswer(
    const RepairProblem& problem, const Query& query,
    size_t max_dnf_disjuncts = kDefaultDnfDisjunctBudget,
    ExecutionContext* context = nullptr);

// Full three-valued verdict computed with two GroundConsistentAnswer
// calls (on Q and not Q).
Result<CqaVerdict> GroundConsistentVerdict(
    const RepairProblem& problem, const Query& query,
    size_t max_dnf_disjuncts = kDefaultDnfDisjunctBudget,
    ExecutionContext* context = nullptr);

// Polynomial consistent answers for *open* negation-free quantifier-free
// queries under plain Rep: the candidate answers are computed on the full
// (inconsistent) database — sound because negation-free queries are
// monotone — and each candidate's ground instantiation is certified with
// GroundConsistentAnswer.
Result<OpenAnswer> GroundConsistentOpenAnswers(
    const RepairProblem& problem, const Query& query,
    size_t max_dnf_disjuncts = kDefaultDnfDisjunctBudget,
    ExecutionContext* context = nullptr);

}  // namespace prefrep

#endif  // PREFREP_CQA_CQA_H_
