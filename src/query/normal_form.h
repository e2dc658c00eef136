// Normal-form transformations used by the polynomial CQA engine:
// negation normal form for arbitrary queries, and ground DNF for
// quantifier-free ground queries (the {∀,∃}-free class of Figure 5).

#ifndef PREFREP_QUERY_NORMAL_FORM_H_
#define PREFREP_QUERY_NORMAL_FORM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/exec_context.h"
#include "base/status.h"
#include "query/ast.h"
#include "relational/tuple.h"

namespace prefrep {

// Pushes negations down to literals (using quantifier and De Morgan
// dualities); the result contains kNot only directly above atoms, and
// comparisons/constants are negated in place.
[[nodiscard]] std::unique_ptr<Query> ToNnf(const Query& query);

// A ground literal of a DNF disjunct: either a (possibly negated) fact
// R(c1...ck), or a comparison between constants (pre-evaluated).
struct GroundLiteral {
  bool positive = true;
  bool is_atom = true;
  // kAtom payload.
  std::string relation;
  Tuple tuple;
  // kComparison payload (op applied to constants).
  ComparisonOp op = ComparisonOp::kEq;
  Value lhs, rhs;

  // Evaluates a comparison literal (CHECK-fails on atoms).
  bool ComparisonHolds() const;
};

using GroundDisjunct = std::vector<GroundLiteral>;

// The DNF conversion's blowup is exponential in the (fixed) query size,
// not in the data, but an adversarially nested query can still balloon:
// both the disjunct count and the total literal count (disjunct count x
// disjunct width) are capped, by default at ExecutionLimits{}'s caps, so
// the conversion degrades to kResourceExhausted instead of OOM. The CQA
// planner reacts to kResourceExhausted by falling back to enumeration.

// Converts a ground quantifier-free query to disjunctive normal form.
// Fails with kInvalidArgument on non-ground/quantified input and with
// kResourceExhausted if the DNF would exceed `max_disjuncts` disjuncts
// or `max_literals` literals in total.
Result<std::vector<GroundDisjunct>> GroundDnf(
    const Query& query,
    size_t max_disjuncts = ExecutionLimits{}.max_dnf_disjuncts,
    size_t max_literals = ExecutionLimits{}.max_dnf_literals);

// A DNF literal that may still contain variables: a (possibly negated)
// atom over terms, or a comparison over terms. The variable-free payload
// of GroundLiteral is produced from it by InstantiateDisjunct.
struct LiteralTemplate {
  bool positive = true;
  bool is_atom = true;
  // kAtom payload.
  std::string relation;
  std::vector<Term> terms;
  // kComparison payload.
  ComparisonOp op = ComparisonOp::kEq;
  Term lhs, rhs;
};

using DisjunctTemplate = std::vector<LiteralTemplate>;

// DNF of a quantifier-free (not necessarily ground) query. This is the
// loop-invariant skeleton of GroundConsistentOpenAnswers: it is computed
// once per query, and only InstantiateDisjunct runs per candidate answer.
Result<std::vector<DisjunctTemplate>> QuantifierFreeDnf(
    const Query& query,
    size_t max_disjuncts = ExecutionLimits{}.max_dnf_disjuncts,
    size_t max_literals = ExecutionLimits{}.max_dnf_literals);

// Grounds `disjunct` by substituting `bindings` for its variables; fails
// with kInvalidArgument if any variable is unbound.
Result<GroundDisjunct> InstantiateDisjunct(
    const DisjunctTemplate& disjunct,
    const std::map<std::string, Value>& bindings);

}  // namespace prefrep

#endif  // PREFREP_QUERY_NORMAL_FORM_H_
