// Tests for src/cqa/planner: tier classification (pinned via
// ExplainPlan), the conflict-free and DNF-budget regressions, degenerate
// edge cases, and the randomized differential suite pinning every
// planner-chosen fast path against planner-forced enumeration.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cqa/planner.h"
#include "query/normal_form.h"
#include "query/parser.h"
#include "query/prepared.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

std::unique_ptr<Query> MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  CHECK(q.ok()) << q.status().ToString();
  return *std::move(q);
}

RepairProblem MustProblem(const GeneratedInstance& inst) {
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  CHECK(problem.ok()) << problem.status().ToString();
  return *std::move(problem);
}

constexpr RepairFamily kAllFamilies[] = {
    RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kSemiGlobal,
    RepairFamily::kGlobal, RepairFamily::kCommon};

// ------------------------------------------------------- tier pinning --

TEST(PlannerTierTest, ConflictFreeInstancePlansSingleRepair) {
  GeneratedInstance inst = MakeKeyGroupsInstance(3, 1);  // consistent
  RepairProblem problem = MustProblem(inst);
  ASSERT_EQ(problem.graph().edge_count(), 0u);
  Priority empty = Priority::Empty(problem.graph());
  auto quantified = MustParse("exists x . R(x, 0)");
  for (RepairFamily family : kAllFamilies) {
    CqaPlan plan = ExplainPlan(problem, empty, family, *quantified,
                               CqaRequest::kVerdict);
    EXPECT_EQ(plan.tier, CqaTier::kSingleRepair) << RepairFamilyName(family);
    plan = ExplainPlan(problem, empty, family, *MustParse("R(x, y)"),
                       CqaRequest::kOpenAnswers);
    EXPECT_EQ(plan.tier, CqaTier::kSingleRepair) << RepairFamilyName(family);
  }
}

TEST(PlannerTierTest, GroundQueryUnderRepPlansFastPath) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto query = MustParse("R(0, 0) or not R(1, 1)");
  CqaPlan plan =
      ExplainPlan(problem, empty, RepairFamily::kAll, *query,
                  CqaRequest::kVerdict);
  EXPECT_EQ(plan.tier, CqaTier::kGroundFastPath);
  EXPECT_FALSE(plan.family_collapsed);

  // Rep ignores the priority, so kAll stays on the fast path even under
  // a non-empty priority.
  auto ranked = Priority::Create(problem.graph(), {{0, 1}});
  ASSERT_TRUE(ranked.ok());
  plan = ExplainPlan(problem, *ranked, RepairFamily::kAll, *query,
                     CqaRequest::kVerdict);
  EXPECT_EQ(plan.tier, CqaTier::kGroundFastPath);
}

TEST(PlannerTierTest, EmptyPriorityCollapsesEveryFamilyToRep) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto query = MustParse("R(0, 0)");
  for (RepairFamily family : kAllFamilies) {
    CqaPlan plan =
        ExplainPlan(problem, empty, family, *query, CqaRequest::kVerdict);
    EXPECT_EQ(plan.tier, CqaTier::kGroundFastPath) << RepairFamilyName(family);
    EXPECT_EQ(plan.effective_family, RepairFamily::kAll);
    EXPECT_EQ(plan.family_collapsed, family != RepairFamily::kAll);
  }
}

TEST(PlannerTierTest, PreferredFamilyUnderPriorityPlansEnumeration) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  auto ranked = Priority::Create(problem.graph(), {{0, 1}});
  ASSERT_TRUE(ranked.ok());
  CqaPlan plan = ExplainPlan(problem, *ranked, RepairFamily::kGlobal,
                             *MustParse("R(0, 0)"), CqaRequest::kVerdict);
  EXPECT_EQ(plan.tier, CqaTier::kEnumeration);
  EXPECT_EQ(plan.effective_family, RepairFamily::kGlobal);
  EXPECT_FALSE(plan.family_collapsed);
}

TEST(PlannerTierTest, QueryShapeRouting) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  // Quantified closed query: no polynomial verdict.
  CqaPlan plan = ExplainPlan(problem, empty, RepairFamily::kAll,
                             *MustParse("exists x . R(x, 0)"),
                             CqaRequest::kVerdict);
  EXPECT_EQ(plan.tier, CqaTier::kEnumeration);
  // Open quantifier-free negation-free query: monotone certification.
  plan = ExplainPlan(problem, empty, RepairFamily::kAll,
                     *MustParse("R(x, y)"), CqaRequest::kOpenAnswers);
  EXPECT_EQ(plan.tier, CqaTier::kGroundFastPath);
  // Negation disables the monotone candidate argument.
  plan = ExplainPlan(problem, empty, RepairFamily::kAll,
                     *MustParse("not R(x, 0)"), CqaRequest::kOpenAnswers);
  EXPECT_EQ(plan.tier, CqaTier::kEnumeration);
}

TEST(PlannerTierTest, PlanRendering) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  CqaPlan plan = ExplainPlan(problem, empty, RepairFamily::kGlobal,
                             *MustParse("R(0, 0)"), CqaRequest::kVerdict);
  EXPECT_NE(plan.ToString().find("tier 1"), std::string::npos);
  EXPECT_NE(plan.ToString().find("ground-fast-path"), std::string::npos);
  EXPECT_NE(plan.reason.find("collapsed"), std::string::npos);
  EXPECT_EQ(CqaTierName(CqaTier::kSingleRepair), "single-repair");
  EXPECT_EQ(CqaTierName(CqaTier::kEnumeration), "enumeration");
}

// ------------------------------- satellite 1: conflict-free regression --

TEST(PlannerRegressionTest, ConflictFreeShortCircuitNeverEnumerates) {
  // 2000 key groups of size 1: conflict-free, so tier 2 would pay a
  // 2000-component decomposition per call. The planner must answer with
  // one evaluation and report tier 0 as the executed plan.
  GeneratedInstance inst = MakeKeyGroupsInstance(2000, 1);
  RepairProblem problem = MustProblem(inst);
  ASSERT_EQ(problem.graph().edge_count(), 0u);
  Priority empty = Priority::Empty(problem.graph());
  auto query = MustParse("forall x, y . (not R(x, y)) or R(x, y)");

  CqaPlan executed;
  auto verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kCommon,
                                         *query, EvalOptions(), &executed);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(*verdict, CqaVerdict::kCertainlyTrue);
  EXPECT_EQ(executed.tier, CqaTier::kSingleRepair);

  // Bit-for-bit against the enumeration engine.
  EvalOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  auto reference = PlannedConsistentAnswer(problem, empty,
                                           RepairFamily::kCommon, *query,
                                           forced, &executed);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration);
  EXPECT_EQ(*verdict, *reference);

  // Open answers short-circuit the same way.
  auto open = MustParse("R(x, y)");
  auto fast = PlannedConsistentAnswers(problem, empty, RepairFamily::kLocal,
                                       *open, EvalOptions(), &executed);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(executed.tier, CqaTier::kSingleRepair);
  auto slow = PlannedConsistentAnswers(problem, empty, RepairFamily::kLocal,
                                       *open, forced);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(fast->variables, slow->variables);
  EXPECT_EQ(fast->rows, slow->rows);
}

// ------------------------------------ satellite 2: DNF budget fallback --

TEST(PlannerBudgetTest, BlownDnfBudgetFallsBackToEnumeration) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  // DNF of the negation has 2^3 = 8 disjuncts; cap at 4.
  auto query = MustParse(
      "(R(0, 0) and R(0, 1)) or (R(1, 0) and R(1, 1)) or "
      "(R(0, 0) and R(1, 1))");
  EvalOptions tiny;
  tiny.limits.max_dnf_disjuncts = 4;

  CqaPlan plan = ExplainPlan(problem, empty, RepairFamily::kAll, *query,
                             CqaRequest::kVerdict, tiny);
  EXPECT_EQ(plan.tier, CqaTier::kEnumeration);
  EXPECT_NE(plan.reason.find("budget"), std::string::npos) << plan.reason;

  // Unforced: the planner answers anyway, via tier 2.
  CqaPlan executed;
  auto verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                         *query, tiny, &executed);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration);

  // The verdict matches both the default (fast-path) plan and forced
  // enumeration.
  auto roomy = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                       *query, EvalOptions(), &executed);
  ASSERT_TRUE(roomy.ok());
  EXPECT_EQ(executed.tier, CqaTier::kGroundFastPath);
  EXPECT_EQ(*verdict, *roomy);

  // Forcing the fast path past the budget surfaces the exhaustion.
  EvalOptions forced_fast = tiny;
  forced_fast.force_tier = CqaTier::kGroundFastPath;
  auto exhausted = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                           *query, forced_fast);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST(PlannerBudgetTest, LiteralBudgetCapsDnfConversion) {
  // 4 conjoined disjunctions of width 2: 16 disjuncts x 4 literals each
  // = 64 literals. A 32-literal budget must trip even though the
  // disjunct budget would admit the result.
  auto query = MustParse(
      "(R(0, 0) or R(0, 1)) and (R(1, 0) or R(1, 1)) and "
      "(R(2, 0) or R(2, 1)) and (R(3, 0) or R(3, 1))");
  auto full = QuantifierFreeDnf(*query, /*max_disjuncts=*/1024,
                                /*max_literals=*/1024);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 16u);
  auto capped = QuantifierFreeDnf(*query, /*max_disjuncts=*/1024,
                                  /*max_literals=*/32);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
}

// ----------------------------------------------- forced-tier contract --

TEST(PlannerForceTest, ForcedTiersValidateEligibility) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto ranked = Priority::Create(problem.graph(), {{0, 1}});
  ASSERT_TRUE(ranked.ok());
  auto ground = MustParse("R(0, 0)");

  EvalOptions force_single;
  force_single.force_tier = CqaTier::kSingleRepair;
  auto verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                         *ground, force_single);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);

  EvalOptions force_fast;
  force_fast.force_tier = CqaTier::kGroundFastPath;
  verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                    *MustParse("exists x . R(x, 0)"),
                                    force_fast);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);

  // A preferred family under a real priority is not Rep-equivalent.
  verdict = PlannedConsistentAnswer(problem, *ranked, RepairFamily::kGlobal,
                                    *ground, force_fast);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);

  // But kAll under the same priority is.
  verdict = PlannedConsistentAnswer(problem, *ranked, RepairFamily::kAll,
                                    *ground, force_fast);
  EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
}

// --------------------------------------- satellite 3: degenerate cases --

TEST(PlannerEdgeCaseTest, EmptyDatabase) {
  GeneratedInstance inst = MakeRnInstance(0);
  RepairProblem problem = MustProblem(inst);
  Priority empty = Priority::Empty(problem.graph());
  EvalOptions forced;
  forced.force_tier = CqaTier::kEnumeration;

  CqaPlan executed;
  for (const char* text : {"R(0, 0)", "not R(0, 0)", "exists x . R(x, 0)"}) {
    auto query = MustParse(text);
    auto fast = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, EvalOptions(), &executed);
    ASSERT_TRUE(fast.ok()) << text;
    EXPECT_EQ(executed.tier, CqaTier::kSingleRepair) << text;
    auto slow = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, forced);
    ASSERT_TRUE(slow.ok()) << text;
    EXPECT_EQ(*fast, *slow) << text;
  }
  auto open = PlannedConsistentAnswers(problem, empty, RepairFamily::kAll,
                                       *MustParse("R(x, y)"));
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(open->rows.empty());
}

TEST(PlannerEdgeCaseTest, ConstantOnlyQueries) {
  GeneratedInstance rn = MakeRnInstance(2);  // conflicted
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  EvalOptions forced;
  forced.force_tier = CqaTier::kEnumeration;

  const std::pair<const char*, CqaVerdict> cases[] = {
      {"true", CqaVerdict::kCertainlyTrue},
      {"false", CqaVerdict::kCertainlyFalse},
      {"not false", CqaVerdict::kCertainlyTrue},
      {"true and not false", CqaVerdict::kCertainlyTrue},
  };
  for (const auto& [text, want] : cases) {
    auto query = MustParse(text);
    CqaPlan executed;
    auto fast = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, EvalOptions(), &executed);
    ASSERT_TRUE(fast.ok()) << text << ": " << fast.status().ToString();
    EXPECT_EQ(*fast, want) << text;
    EXPECT_EQ(executed.tier, CqaTier::kGroundFastPath) << text;
    auto slow = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                        *query, forced);
    ASSERT_TRUE(slow.ok()) << text;
    EXPECT_EQ(*fast, *slow) << text;
  }

  // Zero-variable open answers: {()} iff the query is certain.
  for (const char* text : {"true", "not false", "false"}) {
    auto query = MustParse(text);
    auto fast = PlannedConsistentAnswers(problem, empty, RepairFamily::kAll,
                                         *query);
    auto slow = PlannedConsistentAnswers(problem, empty, RepairFamily::kAll,
                                         *query, forced);
    ASSERT_TRUE(fast.ok()) << text << ": " << fast.status().ToString();
    ASSERT_TRUE(slow.ok()) << text;
    EXPECT_EQ(fast->variables, slow->variables) << text;
    EXPECT_EQ(fast->rows, slow->rows) << text;
  }
}

TEST(PlannerEdgeCaseTest, UnknownRelationFailsIdenticallyAcrossTiers) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  EvalOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  auto query = MustParse("S(0, 0)");

  auto fast = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                      *query);
  auto slow = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                      *query, forced);
  ASSERT_FALSE(fast.ok());
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(fast.status().code(), slow.status().code());

  auto fast_open = PlannedConsistentAnswers(problem, empty,
                                            RepairFamily::kAll, *query);
  auto slow_open = PlannedConsistentAnswers(problem, empty,
                                            RepairFamily::kAll, *query,
                                            forced);
  ASSERT_FALSE(fast_open.ok());
  ASSERT_FALSE(slow_open.ok());
  EXPECT_EQ(fast_open.status().code(), slow_open.status().code());
}

// ------------------------------------------------- aggregation planning --

TEST(PlannerAggregateTest, CountStarRoutesToComponentRange) {
  GeneratedInstance rn = MakeRnInstance(3);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  CqaPlan executed;
  auto fast = PlannedAggregateRange(problem, empty, RepairFamily::kGlobal,
                                    "R", "", AggregateFunction::kCount,
                                    EvalOptions(),
                                    &executed);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kGroundFastPath);
  EXPECT_TRUE(executed.family_collapsed);

  EvalOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  auto slow = PlannedAggregateRange(problem, empty, RepairFamily::kGlobal,
                                    "R", "", AggregateFunction::kCount,
                                    forced, &executed);
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration);
  EXPECT_EQ(fast->lo, slow->lo);
  EXPECT_EQ(fast->hi, slow->hi);
  EXPECT_EQ(fast->empty_possible, slow->empty_possible);

  // SUM has no polynomial range: plans enumeration.
  auto sum = PlannedAggregateRange(problem, empty, RepairFamily::kAll, "R",
                                   "B", AggregateFunction::kSum,
                                   EvalOptions(),
                                   &executed);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration);
}

// -------------------------------- satellite 4: differential equivalence --

// Builds a random literal over R; `vars` (possibly empty) supplies the
// variable pool for open queries.
std::unique_ptr<Query> RandomAtom(Rng& rng, const Relation& rel, int arity,
                                  const std::vector<std::string>& vars) {
  std::vector<Term> terms;
  const Tuple* sample =
      rel.size() > 0
          ? &rel.tuple(static_cast<int>(rng.UniformInt(rel.size())))
          : nullptr;
  for (int i = 0; i < arity; ++i) {
    if (!vars.empty() && rng.Bernoulli(0.3)) {
      terms.push_back(
          Term::Var(vars[static_cast<size_t>(rng.UniformInt(vars.size()))]));
    } else if (sample != nullptr && rng.Bernoulli(0.7)) {
      terms.push_back(Term::Const(sample->values()[static_cast<size_t>(i)]));
    } else {
      terms.push_back(
          Term::ConstNumber(static_cast<int64_t>(rng.UniformInt(4))));
    }
  }
  return Query::Atom("R", std::move(terms));
}

std::unique_ptr<Query> RandomQuery(Rng& rng, const Relation& rel, int arity,
                                   const std::vector<std::string>& vars,
                                   bool allow_negation) {
  std::vector<std::unique_ptr<Query>> literals;
  int count = 1 + static_cast<int>(rng.UniformInt(3));
  for (int i = 0; i < count; ++i) {
    std::unique_ptr<Query> atom;
    if (!vars.empty() && rng.Bernoulli(0.2)) {
      // Comparison literal: exercises the non-atom leg of the DNF and
      // candidate-certification paths.
      atom = Query::Cmp(
          rng.Bernoulli(0.5) ? ComparisonOp::kLt : ComparisonOp::kNe,
          Term::Var(vars[static_cast<size_t>(rng.UniformInt(vars.size()))]),
          Term::ConstNumber(static_cast<int64_t>(rng.UniformInt(4))));
    } else {
      atom = RandomAtom(rng, rel, arity, vars);
    }
    literals.push_back(allow_negation && rng.Bernoulli(0.35)
                           ? Query::Not(std::move(atom))
                           : std::move(atom));
  }
  if (literals.size() == 1) return std::move(literals[0]);
  return rng.Bernoulli(0.5) ? Query::And(std::move(literals))
                            : Query::Or(std::move(literals));
}

// Shape class `q` (mod 4): ground qf, open qf (negation-free and not),
// and quantified/conjunctive closed.
std::unique_ptr<Query> ShapeClassQuery(Rng& rng, const Relation& rel, int q) {
  switch (q % 4) {
    case 0:
      return RandomQuery(rng, rel, 3, {}, /*allow_negation=*/true);
    case 1:
      return RandomQuery(rng, rel, 3, {"x"}, /*allow_negation=*/false);
    case 2:
      return RandomQuery(rng, rel, 3, {"x", "y"}, /*allow_negation=*/true);
    default: {
      auto body = RandomQuery(rng, rel, 3, {"x"}, /*allow_negation=*/true);
      std::set<std::string> free = body->FreeVariables();
      if (free.empty()) return body;
      std::vector<std::string> bound(free.begin(), free.end());
      return rng.Bernoulli(0.5)
                 ? Query::Exists(std::move(bound), std::move(body))
                 : Query::ForAll(std::move(bound), std::move(body));
    }
  }
}

uint64_t DifferentialSeed() {
  // Deterministic by default; CI's sanitizer leg sweeps extra seeds.
  uint64_t seed = 20260808;
  if (const char* env = std::getenv("PLANNER_TEST_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  return seed;
}

// Both priority kinds plus the empty priority, cycling with `trial`.
Priority CyclePriority(Rng& rng, const ConflictGraph& graph, int trial) {
  switch (trial % 3) {
    case 0:
      return Priority::Empty(graph);
    case 1:
      return RandomRankingPriority(rng, graph, 0.7);
    default:
      return RandomDagPriority(rng, graph, 0.7);
  }
}

TEST(PlannerDifferentialTest, PlannerMatchesForcedEnumeration) {
  Rng rng(DifferentialSeed());
  int verdicts_compared = 0;
  int answer_sets_compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 12, 3, 3, 2);
    RepairProblem problem = MustProblem(inst);
    const Relation& rel = *inst.db->relation("R").value();

    Priority priority = CyclePriority(rng, problem.graph(), trial);
    RepairFamily family = kAllFamilies[trial % 5];

    EvalOptions forced;
    forced.force_tier = CqaTier::kEnumeration;

    for (int q = 0; q < 4; ++q) {
      std::unique_ptr<Query> query = ShapeClassQuery(rng, rel, q);
      if (query->IsClosed()) {
        auto fast = PlannedConsistentAnswer(problem, priority, family, *query);
        auto slow = PlannedConsistentAnswer(problem, priority, family, *query,
                                            forced);
        ASSERT_TRUE(fast.ok()) << fast.status().ToString() << " for "
                               << query->ToString();
        ASSERT_TRUE(slow.ok()) << slow.status().ToString();
        EXPECT_EQ(*fast, *slow)
            << "trial " << trial << " family " << RepairFamilyName(family)
            << " query " << query->ToString();
        ++verdicts_compared;
      }

      auto fast_open =
          PlannedConsistentAnswers(problem, priority, family, *query);
      auto slow_open = PlannedConsistentAnswers(problem, priority, family,
                                                *query, forced);
      ASSERT_TRUE(fast_open.ok())
          << fast_open.status().ToString() << " for " << query->ToString();
      ASSERT_TRUE(slow_open.ok()) << slow_open.status().ToString();
      EXPECT_EQ(fast_open->variables, slow_open->variables)
          << query->ToString();
      EXPECT_EQ(fast_open->rows, slow_open->rows)
          << "trial " << trial << " family " << RepairFamilyName(family)
          << " query " << query->ToString();
      ++answer_sets_compared;
    }

    // COUNT(*) aggregation rides the same differential.
    auto fast_count = PlannedAggregateRange(problem, priority, family, "R",
                                            "", AggregateFunction::kCount);
    auto slow_count =
        PlannedAggregateRange(problem, priority, family, "R", "",
                              AggregateFunction::kCount, forced);
    ASSERT_TRUE(fast_count.ok()) << fast_count.status().ToString();
    ASSERT_TRUE(slow_count.ok());
    EXPECT_EQ(fast_count->lo, slow_count->lo) << "trial " << trial;
    EXPECT_EQ(fast_count->hi, slow_count->hi) << "trial " << trial;
    EXPECT_EQ(fast_count->empty_possible, slow_count->empty_possible);
  }
  EXPECT_EQ(answer_sets_compared, 160);
  EXPECT_GE(verdicts_compared, 40);
}

void ExpectSamePlan(const CqaPlan& got, const CqaPlan& want,
                    const std::string& context) {
  EXPECT_EQ(got.tier, want.tier) << context;
  EXPECT_EQ(got.requested_family, want.requested_family) << context;
  EXPECT_EQ(got.effective_family, want.effective_family) << context;
  EXPECT_EQ(got.family_collapsed, want.family_collapsed) << context;
  EXPECT_EQ(got.reason, want.reason) << context;
}

// The resident-server seams (EvalOptions::prepared and
// EvalOptions::precomputed_plan) must be pure shortcuts: a seamed call
// answers exactly like the bare call and reports the same executed plan.
// And force_tier beats a stale precomputed plan — both when the forced
// tier runs and when CheckForcedTier must reject it.
TEST(PlannerDifferentialTest, SeamsMatchBareCallsAndForceBeatsStalePlans) {
  Rng rng(DifferentialSeed());
  int seamed_compared = 0;
  int stale_forced = 0;
  int stale_rejected = 0;
  for (int trial = 0; trial < 20; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 12, 3, 3, 2);
    RepairProblem problem = MustProblem(inst);
    const Relation& rel = *inst.db->relation("R").value();
    Priority priority = CyclePriority(rng, problem.graph(), trial);
    const bool conflicted = problem.graph().edge_count() > 0;
    for (int q = 0; q < 4; ++q) {
      std::unique_ptr<Query> query = ShapeClassQuery(rng, rel, q);
      auto prepared = PreparedQuery::Compile(problem.db(), *query);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      const QueryShape shape = ClassifyQuery(*query);
      for (RepairFamily family : kAllFamilies) {
        const std::string where = "trial " + std::to_string(trial) + " " +
                                  std::string(RepairFamilyName(family)) +
                                  " query " + query->ToString();
        const bool rep_equivalent =
            EffectiveFamily(priority, family) == RepairFamily::kAll;
        for (CqaRequest request :
             {CqaRequest::kVerdict, CqaRequest::kOpenAnswers}) {
          const bool verdict = request == CqaRequest::kVerdict;
          if (verdict && !query->IsClosed()) continue;
          CqaPlan explained =
              ExplainPlan(problem, priority, family, *query, request);
          EvalOptions seamed;
          seamed.prepared = &*prepared;
          seamed.precomputed_plan = &explained;

          // A stale plan: the explained one, claiming a different tier.
          CqaPlan stale = explained;
          stale.tier = explained.tier == CqaTier::kEnumeration
                           ? CqaTier::kSingleRepair
                           : CqaTier::kEnumeration;
          stale.reason = "stale";
          EvalOptions forced_enum;
          forced_enum.force_tier = CqaTier::kEnumeration;
          EvalOptions forced_enum_stale = forced_enum;
          forced_enum_stale.prepared = &*prepared;
          forced_enum_stale.precomputed_plan = &stale;

          CqaPlan bare_plan;
          CqaPlan seamed_plan;
          CqaPlan forced_plan;
          CqaPlan stale_plan;
          if (verdict) {
            auto bare = PlannedConsistentAnswer(problem, priority, family,
                                                *query, {}, &bare_plan);
            auto via_seams = PlannedConsistentAnswer(
                problem, priority, family, *query, seamed, &seamed_plan);
            ASSERT_TRUE(bare.ok()) << bare.status().ToString() << " " << where;
            ASSERT_TRUE(via_seams.ok()) << via_seams.status().ToString();
            EXPECT_EQ(*via_seams, *bare) << where;
            auto forced = PlannedConsistentAnswer(
                problem, priority, family, *query, forced_enum, &forced_plan);
            auto over_stale =
                PlannedConsistentAnswer(problem, priority, family, *query,
                                        forced_enum_stale, &stale_plan);
            ASSERT_TRUE(forced.ok()) << forced.status().ToString();
            ASSERT_TRUE(over_stale.ok()) << over_stale.status().ToString();
            EXPECT_EQ(*over_stale, *forced) << where;
          } else {
            auto bare = PlannedConsistentAnswers(problem, priority, family,
                                                 *query, {}, &bare_plan);
            auto via_seams = PlannedConsistentAnswers(
                problem, priority, family, *query, seamed, &seamed_plan);
            ASSERT_TRUE(bare.ok()) << bare.status().ToString() << " " << where;
            ASSERT_TRUE(via_seams.ok()) << via_seams.status().ToString();
            EXPECT_EQ(via_seams->variables, bare->variables) << where;
            EXPECT_EQ(via_seams->rows, bare->rows) << where;
            auto forced = PlannedConsistentAnswers(
                problem, priority, family, *query, forced_enum, &forced_plan);
            auto over_stale =
                PlannedConsistentAnswers(problem, priority, family, *query,
                                         forced_enum_stale, &stale_plan);
            ASSERT_TRUE(forced.ok()) << forced.status().ToString();
            ASSERT_TRUE(over_stale.ok()) << over_stale.status().ToString();
            EXPECT_EQ(over_stale->rows, forced->rows) << where;
          }
          ExpectSamePlan(seamed_plan, bare_plan, where);
          ExpectSamePlan(stale_plan, forced_plan, where);
          EXPECT_EQ(stale_plan.tier, CqaTier::kEnumeration) << where;
          ++seamed_compared;
          ++stale_forced;

          // Forcing an ineligible tier is rejected even when the stale
          // plan claims that very tier.
          const bool fast_eligible =
              rep_equivalent &&
              (verdict ? shape.ground && shape.quantifier_free
                       : shape.quantifier_free && shape.negation_free);
          std::vector<CqaTier> ineligible;
          if (conflicted) ineligible.push_back(CqaTier::kSingleRepair);
          if (!fast_eligible) ineligible.push_back(CqaTier::kGroundFastPath);
          for (CqaTier tier : ineligible) {
            CqaPlan claims = explained;
            claims.tier = tier;
            EvalOptions forced_bad;
            forced_bad.force_tier = tier;
            forced_bad.prepared = &*prepared;
            forced_bad.precomputed_plan = &claims;
            Status status =
                verdict ? PlannedConsistentAnswer(problem, priority, family,
                                                  *query, forced_bad)
                              .status()
                        : PlannedConsistentAnswers(problem, priority, family,
                                                   *query, forced_bad)
                              .status();
            EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
                << CqaTierName(tier) << " " << where << ": "
                << status.ToString();
            ++stale_rejected;
          }
        }
      }
    }
  }
  EXPECT_GE(seamed_compared, 400);
  EXPECT_EQ(stale_forced, seamed_compared);
  EXPECT_GT(stale_rejected, 0);
}

}  // namespace
}  // namespace prefrep
