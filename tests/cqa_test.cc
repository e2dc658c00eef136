// Tests for src/cqa: preferred consistent query answers (Definition 3),
// the polynomial ground-query engine and its differential validation
// against the naive enumerate-all-repairs engine.

#include <gtest/gtest.h>

#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "query/parser.h"
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

// ------------------------------------------------------ basic semantics --

TEST(CqaTest, ConsistentDatabaseAnswersMatchPlainEvaluation) {
  GeneratedInstance inst = MakeKeyGroupsInstance(2, 1);  // consistent
  RepairProblem problem = MustProblem(inst);
  Priority empty = Priority::Empty(problem.graph());
  auto verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                         *MustParse("R(0, 0)"));
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, CqaVerdict::kCertainlyTrue);
  verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                    *MustParse("R(0, 7)"));
  EXPECT_EQ(*verdict, CqaVerdict::kCertainlyFalse);
}

TEST(CqaTest, ConflictingFactIsUndetermined) {
  // r_1 = {(0,0),(0,1)}: each repair keeps exactly one of the two facts.
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                         *MustParse("R(0, 0)"));
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, CqaVerdict::kUndetermined);
  // The disjunction holds in every repair.
  verdict = PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                    *MustParse("R(0, 0) or R(0, 1)"));
  EXPECT_EQ(*verdict, CqaVerdict::kCertainlyTrue);
}

TEST(CqaTest, PriorityResolvesTheAnswer) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  // Prefer (0,0) over (0,1): ids 0 and 1.
  auto priority = Priority::Create(problem.graph(), {{0, 1}});
  ASSERT_TRUE(priority.ok());
  for (RepairFamily family :
       {RepairFamily::kLocal, RepairFamily::kSemiGlobal, RepairFamily::kGlobal,
        RepairFamily::kCommon}) {
    auto verdict = PlannedConsistentAnswer(problem, *priority, family,
                                           *MustParse("R(0, 0)"));
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(*verdict, CqaVerdict::kCertainlyTrue)
        << RepairFamilyName(family);
  }
  // The unrestricted family still cannot decide.
  auto verdict = PlannedConsistentAnswer(problem, *priority,
                                         RepairFamily::kAll,
                                         *MustParse("R(0, 0)"));
  EXPECT_EQ(*verdict, CqaVerdict::kUndetermined);
}

TEST(CqaTest, RejectsOpenQueriesInClosedApi) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  EXPECT_FALSE(PlannedConsistentAnswer(problem, empty, RepairFamily::kAll,
                                       *MustParse("R(x, 0)"))
                   .ok());
}

TEST(CqaTest, QuantifiedQueryOverRepairs) {
  // In every repair of r_2 there is some tuple with B = 0 or B = 1 for
  // each key; "exists x . R(x, 0)" holds only in repairs keeping a 0-tuple.
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto undetermined = PlannedConsistentAnswer(
      problem, empty, RepairFamily::kAll, *MustParse("exists x . R(x, 0)"));
  EXPECT_EQ(*undetermined, CqaVerdict::kUndetermined);
  auto certain = PlannedConsistentAnswer(
      problem, empty, RepairFamily::kAll,
      *MustParse("forall x, y . (not R(x, y)) or y <= 1"));
  EXPECT_EQ(*certain, CqaVerdict::kCertainlyTrue);
}

// -------------------------------------------------- open-query answers --

TEST(CqaTest, OpenQueryConsistentAnswersIntersect) {
  // r_2: keys 0 and 1, values {0,1} each. The consistent answers to
  // R(x, y) are empty; to "R(x,0) or R(x,1)" (projected on x) both keys.
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  Priority empty = Priority::Empty(problem.graph());
  auto none = PlannedConsistentAnswers(problem, empty, RepairFamily::kAll,
                                       *MustParse("R(x, y)"));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->rows.empty());

  auto keys = PlannedConsistentAnswers(
      problem, empty, RepairFamily::kAll,
      *MustParse("R(x, 0) or R(x, 1)"));
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->rows.size(), 2u);
  EXPECT_EQ(keys->rows[0], Tuple::Of(Value::Number(0)));
  EXPECT_EQ(keys->rows[1], Tuple::Of(Value::Number(1)));
}

TEST(CqaTest, OpenQueryPreferredAnswersGrowWithPriorities) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  // Prefer value 0 for key 0 (ids 0,1) and value 1 for key 1 (ids 2,3).
  auto priority = Priority::Create(problem.graph(), {{0, 1}, {3, 2}});
  ASSERT_TRUE(priority.ok());
  auto answers = PlannedConsistentAnswers(
      problem, *priority, RepairFamily::kGlobal, *MustParse("R(x, y)"));
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->rows.size(), 2u);
  EXPECT_EQ(answers->rows[0], Tuple::Of(Value::Number(0), Value::Number(0)));
  EXPECT_EQ(answers->rows[1], Tuple::Of(Value::Number(1), Value::Number(1)));
}

// ----------------------------------------------- polynomial ground CQA --

TEST(GroundCqaTest, MatchesDefinitionOnRn) {
  GeneratedInstance rn = MakeRnInstance(2);
  RepairProblem problem = MustProblem(rn);
  EXPECT_FALSE(*GroundConsistentAnswer(problem, *MustParse("R(0, 0)")));
  EXPECT_TRUE(
      *GroundConsistentAnswer(problem, *MustParse("R(0, 0) or R(0, 1)")));
  EXPECT_TRUE(*GroundConsistentAnswer(problem, *MustParse("not false")));
  // A fact outside the database is false in every repair.
  EXPECT_TRUE(*GroundConsistentAnswer(problem, *MustParse("not R(9, 9)")));
  EXPECT_FALSE(*GroundConsistentAnswer(problem, *MustParse("R(9, 9)")));
}

TEST(GroundCqaTest, ConflictFreeFactIsCertain) {
  // A tuple involved in no conflict belongs to every repair.
  GeneratedInstance inst = MakeKeyGroupsInstance(1, 3);
  ASSERT_TRUE(inst.db->Insert("R", Tuple::Of(Value::Number(9),
                                             Value::Number(9)))
                  .ok());
  RepairProblem problem = MustProblem(inst);
  EXPECT_TRUE(*GroundConsistentAnswer(problem, *MustParse("R(9, 9)")));
  EXPECT_FALSE(*GroundConsistentAnswer(problem, *MustParse("not R(9, 9)")));
}

TEST(GroundCqaTest, RejectsNonGroundQueries) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  EXPECT_FALSE(GroundConsistentAnswer(problem, *MustParse("R(x, 0)")).ok());
  EXPECT_FALSE(
      GroundConsistentAnswer(problem, *MustParse("exists x . R(x, 0)")).ok());
}

TEST(GroundCqaTest, NegativeLiteralNeedsWitness) {
  // Key group {(0,0),(0,1),(0,2)}: "not R(0,0)" holds in the repairs
  // keeping (0,1) or (0,2) — not in all; and "R(0,1) or not R(0,0)" is
  // also not certain (repair {(0,0)} falsifies both parts).
  GeneratedInstance inst = MakeKeyGroupsInstance(1, 3);
  RepairProblem problem = MustProblem(inst);
  EXPECT_FALSE(*GroundConsistentAnswer(problem, *MustParse("not R(0, 0)")));
  EXPECT_FALSE(*GroundConsistentAnswer(
      problem, *MustParse("R(0, 1) or not R(0, 0)")));
  // But "not R(0,0) or not R(0,1)" holds in every repair (they conflict).
  EXPECT_TRUE(*GroundConsistentAnswer(
      problem, *MustParse("not R(0, 0) or not R(0, 1)")));
}

TEST(GroundCqaTest, GroundVerdictThreeValues) {
  GeneratedInstance rn = MakeRnInstance(1);
  RepairProblem problem = MustProblem(rn);
  EXPECT_EQ(*GroundConsistentVerdict(problem,
                                     *MustParse("R(0, 0) or R(0, 1)")),
            CqaVerdict::kCertainlyTrue);
  EXPECT_EQ(*GroundConsistentVerdict(problem,
                                     *MustParse("R(0, 0) and R(0, 1)")),
            CqaVerdict::kCertainlyFalse);
  EXPECT_EQ(*GroundConsistentVerdict(problem, *MustParse("R(0, 0)")),
            CqaVerdict::kUndetermined);
}

// Differential test: the polynomial engine agrees with the naive
// enumerate-all-repairs engine on random instances and random ground
// queries. This is the key correctness evidence for the Fig. 5 row 1
// implementation.
TEST(GroundCqaTest, DifferentialAgainstNaiveEngine) {
  Rng rng(777);
  int compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 14, 3, 3, 2);
    RepairProblem problem = MustProblem(inst);
    Priority empty = Priority::Empty(problem.graph());
    const Relation& rel = *inst.db->relation("R").value();

    auto random_fact = [&]() -> std::unique_ptr<Query> {
      std::vector<Term> terms;
      if (rng.Bernoulli(0.8) && rel.size() > 0) {
        // An existing tuple (possibly in a conflict).
        const Tuple& t = rel.tuple(
            static_cast<int>(rng.UniformInt(rel.size())));
        for (const Value& v : t.values()) terms.push_back(Term::Const(v));
      } else {
        for (int i = 0; i < 3; ++i) {
          terms.push_back(Term::ConstNumber(
              static_cast<int64_t>(rng.UniformInt(4))));
        }
      }
      return Query::Atom("R", std::move(terms));
    };

    for (int q = 0; q < 8; ++q) {
      // Random ground query: combination of up to 3 literals.
      std::vector<std::unique_ptr<Query>> literals;
      int count = 1 + static_cast<int>(rng.UniformInt(3));
      for (int i = 0; i < count; ++i) {
        auto atom = random_fact();
        literals.push_back(rng.Bernoulli(0.4) ? Query::Not(std::move(atom))
                                              : std::move(atom));
      }
      std::unique_ptr<Query> query =
          rng.Bernoulli(0.5) ? Query::And(std::move(literals))
                             : Query::Or(std::move(literals));

      auto fast = GroundConsistentAnswer(problem, *query);
      ASSERT_TRUE(fast.ok()) << fast.status().ToString();
      auto naive = PlannedConsistentAnswer(problem, empty,
                                           RepairFamily::kAll, *query);
      ASSERT_TRUE(naive.ok());
      EXPECT_EQ(*fast, *naive == CqaVerdict::kCertainlyTrue)
          << "trial " << trial << " query " << query->ToString();
      ++compared;
    }
  }
  EXPECT_EQ(compared, 96);
}

// X-Rep ⊆ Rep implies: certainly-true under Rep stays certainly-true under
// every preferred family (monotonicity of the certain answer).
TEST(CqaTest, PreferredAnswersRefineRepAnswers) {
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 12, 3, 3, 2);
    RepairProblem problem = MustProblem(inst);
    Priority p = RandomDagPriority(rng, problem.graph(), 0.6);
    const Relation& rel = *inst.db->relation("R").value();
    if (rel.size() == 0) continue;
    const Tuple& t =
        rel.tuple(static_cast<int>(rng.UniformInt(rel.size())));
    std::vector<Term> terms;
    for (const Value& v : t.values()) terms.push_back(Term::Const(v));
    auto query = Query::Atom("R", std::move(terms));

    auto rep = PlannedConsistentAnswer(problem, p, RepairFamily::kAll,
                                       *query);
    ASSERT_TRUE(rep.ok());
    for (RepairFamily family :
         {RepairFamily::kLocal, RepairFamily::kSemiGlobal,
          RepairFamily::kGlobal, RepairFamily::kCommon}) {
      auto pref = PlannedConsistentAnswer(problem, p, family, *query);
      ASSERT_TRUE(pref.ok());
      if (*rep == CqaVerdict::kCertainlyTrue) {
        EXPECT_EQ(*pref, CqaVerdict::kCertainlyTrue)
            << RepairFamilyName(family);
      }
      if (*rep == CqaVerdict::kCertainlyFalse) {
        EXPECT_EQ(*pref, CqaVerdict::kCertainlyFalse)
            << RepairFamilyName(family);
      }
    }
  }
}

}  // namespace
}  // namespace prefrep
