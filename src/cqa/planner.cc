#include "cqa/planner.h"

#include <memory>
#include <type_traits>
#include <utility>

#include "query/normal_form.h"
#include "query/prepared.h"

namespace prefrep {

std::string_view CqaTierName(CqaTier tier) {
  switch (tier) {
    case CqaTier::kSingleRepair:
      return "single-repair";
    case CqaTier::kGroundFastPath:
      return "ground-fast-path";
    case CqaTier::kEnumeration:
      return "enumeration";
  }
  return "?";
}

std::string CqaPlan::ToString() const {
  std::string out = "tier ";
  switch (tier) {
    case CqaTier::kSingleRepair:
      out += "0";
      break;
    case CqaTier::kGroundFastPath:
      out += "1";
      break;
    case CqaTier::kEnumeration:
      out += "2";
      break;
  }
  out += " (" + std::string(CqaTierName(tier)) + ")";
  if (!reason.empty()) out += ": " + reason;
  return out;
}

namespace {

// The routing rationale shared by every plan: how the family was
// normalized, phrased for CqaPlan::reason.
std::string FamilyNote(const CqaPlan& plan) {
  if (plan.family_collapsed) {
    return std::string(RepairFamilyName(plan.requested_family)) +
           " collapsed to Rep (empty priority)";
  }
  return std::string(RepairFamilyName(plan.requested_family));
}

// True iff the tier-1 engine's DNF conversions for this request fit both
// caps the engine will run under. Query-size-dependent work only (the
// conversion is capped at the caps themselves), so planning stays
// data-independent.
bool DnfFitsBudget(const Query& query, CqaRequest request,
                   const ExecutionLimits& limits) {
  const auto fits = [&limits](const Query& q) {
    return QuantifierFreeDnf(q, limits.max_dnf_disjuncts,
                             limits.max_dnf_literals)
        .ok();
  };
  // GroundConsistentVerdict may also DNF the un-negated query (for the
  // certainly-false test).
  return fits(*Query::Not(query.Clone())) &&
         (request != CqaRequest::kVerdict || fits(query));
}

}  // namespace

CqaPlan ExplainPlan(const RepairProblem& problem, const Priority& priority,
                    RepairFamily family, const Query& query,
                    CqaRequest request, const EvalOptions& options) {
  CqaPlan plan;
  plan.requested_family = family;
  plan.effective_family = EffectiveFamily(priority, family);
  plan.family_collapsed = plan.effective_family != family;
  if (options.force_tier.has_value()) {
    plan.tier = *options.force_tier;
    plan.reason = "forced by options";
    return plan;
  }
  // Tier 0: a conflict-free database has exactly one repair — itself —
  // under every family and priority, so one evaluation answers the call.
  if (problem.graph().edge_count() == 0) {
    plan.tier = CqaTier::kSingleRepair;
    plan.reason = "conflict-free database: the unique repair is the "
                  "database itself";
    return plan;
  }
  QueryShape shape = ClassifyQuery(query);
  // Tier 1 is sound only under plain Rep semantics.
  if (plan.effective_family == RepairFamily::kAll) {
    if (request == CqaRequest::kVerdict && shape.ground &&
        shape.quantifier_free) {
      if (DnfFitsBudget(query, request, options.EffectiveLimits())) {
        plan.tier = CqaTier::kGroundFastPath;
        plan.reason = FamilyNote(plan) +
                      "; ground quantifier-free query -> polynomial "
                      "conflict-graph verdict";
        return plan;
      }
      plan.reason = FamilyNote(plan) +
                    "; DNF budget exceeded -> enumeration fallback";
      return plan;
    }
    if (request == CqaRequest::kOpenAnswers && shape.quantifier_free &&
        shape.negation_free) {
      if (DnfFitsBudget(query, request, options.EffectiveLimits())) {
        plan.tier = CqaTier::kGroundFastPath;
        plan.reason = FamilyNote(plan) +
                      "; quantifier-free negation-free query -> monotone "
                      "candidate certification";
        return plan;
      }
      plan.reason = FamilyNote(plan) +
                    "; DNF budget exceeded -> enumeration fallback";
      return plan;
    }
    plan.reason =
        FamilyNote(plan) + "; query shape outside the polynomial class";
    return plan;
  }
  plan.reason = FamilyNote(plan) +
                " with a non-empty priority: no polynomial route known";
  return plan;
}

namespace {

// A privately owned compiled query for tiers 0 and 2: a copy of the
// caller's cached master when one is given (evaluation reuses internal
// scratch, so the shared master is never touched), a fresh compile
// otherwise. PreparedQuery (not the reference evaluator) on purpose in
// tier 0 too: the two deliberately diverge on shadowed binder names (see
// query/prepared.h), and tier choice must never change an answer.
Result<PreparedQuery> OwnPrepared(const RepairProblem& problem,
                                  const Query& query,
                                  const PreparedQuery* cached) {
  if (cached != nullptr) return PreparedQuery(*cached);
  return PreparedQuery::Compile(problem.db(), query);
}

Status ForcedTierError(CqaTier tier, const std::string& why) {
  return Status::InvalidArgument("cannot force tier " +
                                 std::string(CqaTierName(tier)) + ": " + why);
}

// Validates a forced tier against the same eligibility rules ExplainPlan
// uses, so a forced fast path can never produce an unsound answer.
Status CheckForcedTier(const RepairProblem& problem, const CqaPlan& plan,
                       const Query& query, CqaRequest request) {
  switch (plan.tier) {
    case CqaTier::kEnumeration:
      return Status::Ok();
    case CqaTier::kSingleRepair:
      if (problem.graph().edge_count() != 0) {
        return ForcedTierError(plan.tier, "database has conflicts");
      }
      return Status::Ok();
    case CqaTier::kGroundFastPath: {
      if (plan.effective_family != RepairFamily::kAll) {
        return ForcedTierError(
            plan.tier, "family " +
                           std::string(RepairFamilyName(
                               plan.effective_family)) +
                           " under a non-empty priority is not "
                           "Rep-equivalent");
      }
      QueryShape shape = ClassifyQuery(query);
      if (request == CqaRequest::kVerdict &&
          !(shape.ground && shape.quantifier_free)) {
        return ForcedTierError(plan.tier,
                               "query is not ground quantifier-free");
      }
      if (request == CqaRequest::kOpenAnswers &&
          !(shape.quantifier_free && shape.negation_free)) {
        return ForcedTierError(
            plan.tier, "query is not quantifier-free and negation-free");
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unknown tier");
}

// Plan + dispatch shared by the verdict (T = CqaVerdict) and open-answer
// (T = OpenAnswer) entry points: the two differ only in which engine each
// tier calls.
template <typename T>
Result<T> PlanAndRun(const RepairProblem& problem, const Priority& priority,
                     RepairFamily family, const Query& query,
                     const EvalOptions& options, CqaPlan* executed) {
  constexpr bool kVerdict = std::is_same_v<T, CqaVerdict>;
  constexpr CqaRequest kRequest =
      kVerdict ? CqaRequest::kVerdict : CqaRequest::kOpenAnswers;
  if constexpr (kVerdict) {
    // Closed queries only, with the same diagnostics on every tier.
    if (!query.IsClosed()) {
      PREFREP_RETURN_IF_ERROR(ValidateQuery(problem.db(), query));
      return Status::InvalidArgument(
          "consistent answers need a closed query; got " + query.ToString());
    }
  }
  EvalContextScope scope(options);
  const EvalOptions& governed = scope.options();
  ExecutionContext* context = scope.context();
  if (context != nullptr && context->interrupted()) {
    return context->StatusWithStats();
  }
  const bool forced = options.force_tier.has_value();
  // A caller-supplied plan (the Session plan cache) skips re-planning —
  // including the query-exponential DNF pre-attempt. force_tier wins: a
  // forced call re-plans so CheckForcedTier sees the forced tier.
  CqaPlan plan = (!forced && options.precomputed_plan != nullptr)
                     ? *options.precomputed_plan
                     : ExplainPlan(problem, priority, family, query, kRequest,
                                   governed);
  if (forced) {
    PREFREP_RETURN_IF_ERROR(CheckForcedTier(problem, plan, query, kRequest));
  }
  if (executed != nullptr) *executed = plan;
  switch (plan.tier) {
    case CqaTier::kSingleRepair: {
      PREFREP_ASSIGN_OR_RETURN(PreparedQuery prepared,
                               OwnPrepared(problem, query, options.prepared));
      if constexpr (kVerdict) {
        PREFREP_ASSIGN_OR_RETURN(bool holds, prepared.EvalClosed(nullptr));
        return holds ? CqaVerdict::kCertainlyTrue
                     : CqaVerdict::kCertainlyFalse;
      } else {
        return prepared.EvalOpen(nullptr);
      }
    }
    case CqaTier::kGroundFastPath: {
      Result<T> result = [&] {
        if constexpr (kVerdict) {
          return GroundConsistentVerdict(problem, query, governed);
        } else {
          return GroundConsistentOpenAnswers(problem, query, governed);
        }
      }();
      if (forced || result.ok() ||
          result.status().code() != StatusCode::kResourceExhausted) {
        return result;
      }
      // Runtime fallback: the DNF blew the caps after all. ExplainPlan
      // checks the conversion under the same caps, so only a stale
      // precomputed_plan (made under looser caps) lands here.
      plan.tier = CqaTier::kEnumeration;
      plan.reason = FamilyNote(plan) +
                    "; DNF budget exceeded at runtime -> enumeration";
      if (executed != nullptr) *executed = plan;
      break;
    }
    case CqaTier::kEnumeration:
      break;
  }
  // A forced enumeration is the differential reference: it runs the
  // *requested* family so the planner's normalization is itself under
  // test; planned enumeration runs the (equivalent) effective family.
  RepairFamily enumerate_as =
      forced ? plan.requested_family : plan.effective_family;
  PREFREP_ASSIGN_OR_RETURN(PreparedQuery prepared,
                           OwnPrepared(problem, query, options.prepared));
  if constexpr (kVerdict) {
    return EnumeratedConsistentAnswer(problem, priority, enumerate_as,
                                      std::move(prepared), governed);
  } else {
    return EnumeratedConsistentAnswers(problem, priority, enumerate_as,
                                       std::move(prepared), governed);
  }
}

}  // namespace

Result<CqaVerdict> PlannedConsistentAnswer(const RepairProblem& problem,
                                           const Priority& priority,
                                           RepairFamily family,
                                           const Query& query,
                                           const EvalOptions& options,
                                           CqaPlan* executed) {
  return PlanAndRun<CqaVerdict>(problem, priority, family, query, options,
                                executed);
}

Result<OpenAnswer> PlannedConsistentAnswers(const RepairProblem& problem,
                                            const Priority& priority,
                                            RepairFamily family,
                                            const Query& query,
                                            const EvalOptions& options,
                                            CqaPlan* executed) {
  return PlanAndRun<OpenAnswer>(problem, priority, family, query, options,
                                executed);
}

Result<AggregateRange> PlannedAggregateRange(
    const RepairProblem& problem, const Priority& priority,
    RepairFamily family, std::string_view relation,
    std::string_view attribute, AggregateFunction fn,
    const EvalOptions& options, CqaPlan* executed) {
  EvalContextScope scope(options);
  ExecutionContext* context = scope.context();
  if (context != nullptr && context->interrupted()) {
    return context->StatusWithStats();
  }
  CqaPlan plan;
  plan.requested_family = family;
  plan.effective_family = EffectiveFamily(priority, family);
  plan.family_collapsed = plan.effective_family != family;
  const bool forced = options.force_tier.has_value();
  bool count_star_eligible = fn == AggregateFunction::kCount &&
                             plan.effective_family == RepairFamily::kAll;
  if (forced) {
    plan.tier = *options.force_tier;
    plan.reason = "forced by options";
    if (plan.tier == CqaTier::kSingleRepair) {
      return ForcedTierError(plan.tier,
                             "aggregation has no single-repair tier");
    }
    if (plan.tier == CqaTier::kGroundFastPath && !count_star_eligible) {
      return ForcedTierError(
          plan.tier, "only COUNT under a Rep-equivalent plan has a "
                     "polynomial range");
    }
  } else if (count_star_eligible) {
    plan.tier = CqaTier::kGroundFastPath;
    plan.reason = FamilyNote(plan) +
                  "; COUNT(*) range decomposes over conflict components";
  } else {
    plan.tier = CqaTier::kEnumeration;
    plan.reason =
        FamilyNote(plan) + "; " +
        std::string(AggregateFunctionName(fn)) +
        " range needs the per-repair aggregate -> enumeration";
  }
  if (executed != nullptr) *executed = plan;
  if (plan.tier == CqaTier::kGroundFastPath) {
    return CountStarRange(problem, relation, scope.options());
  }
  RepairFamily enumerate_as =
      forced ? plan.requested_family : plan.effective_family;
  return AggregateConsistentRange(problem, priority, enumerate_as, relation,
                                  attribute, fn, scope.options());
}

}  // namespace prefrep
