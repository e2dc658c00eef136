// Link-level smoke test: instantiates one object (or calls one entry
// point) from every src/ module, so a regression that breaks a module's
// build or link fails as a named test here instead of a cryptic linker
// error in whichever suite happens to pull the symbol in first.

#include <gtest/gtest.h>

#include "base/biguint.h"
#include "base/bitset.h"
#include "base/random.h"
#include "base/status.h"
#include "base/strings.h"
#include "cleaning/cleaning.h"
#include "constraints/fd.h"
#include "constraints/fd_theory.h"
#include "core/algorithm1.h"
#include "core/families.h"
#include "cqa/aggregation.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "denial/denial.h"
#include "graph/conflict_graph.h"
#include "graph/digraph.h"
#include "graph/dot.h"
#include "graph/mis.h"
#include "priority/priority.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "relational/database.h"
#include "repair/metrics.h"
#include "repair/repair.h"
#include "repair/sampling.h"
#include "sql/sql.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

// The shared fixture: r_2 from Example 4 (4 tuples, 2 conflict edges).
class SmokeBuild : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = MakeRnInstance(2);
    auto problem = RepairProblem::Create(instance_.db.get(), instance_.fds);
    ASSERT_TRUE(problem.ok()) << problem.status().ToString();
    problem_ = std::make_unique<RepairProblem>(*std::move(problem));
  }

  GeneratedInstance instance_;
  std::unique_ptr<RepairProblem> problem_;
};

TEST_F(SmokeBuild, Base) {
  DynamicBitset bits(4);
  bits.Set(0);
  EXPECT_EQ(bits.Count(), 1);
  Rng rng(42);
  EXPECT_LT(rng.UniformInt(10), 10u);
  EXPECT_EQ(BigUint::One().ToString(), "1");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST_F(SmokeBuild, Relational) {
  EXPECT_EQ(instance_.db->tuple_count(), 4);
  EXPECT_TRUE(instance_.db->HasRelation("R"));
}

TEST_F(SmokeBuild, Constraints) {
  ASSERT_EQ(instance_.fds.size(), 1u);
  const Schema& schema = instance_.db->relations()[0].schema();
  EXPECT_TRUE(instance_.fds[0].IsKeyDependencyFor(schema));
  EXPECT_TRUE(IsSingleKeyDependency(schema, instance_.fds));
}

TEST_F(SmokeBuild, Priority) {
  Priority empty = Priority::Empty(problem_->graph());
  EXPECT_EQ(empty.arc_count(), 0);
}

TEST_F(SmokeBuild, Graph) {
  EXPECT_EQ(problem_->graph().edge_count(), 2);
  EXPECT_TRUE(IsAcyclicDigraph(2, {{0, 1}}));
  EXPECT_FALSE(ToDot(problem_->graph(), nullptr).empty());
  EXPECT_EQ(CountMaximalIndependentSets(problem_->graph()).ToString(), "4");
}

TEST_F(SmokeBuild, Core) {
  Priority empty = Priority::Empty(problem_->graph());
  DynamicBitset repair = CleanDatabase(problem_->graph(), empty);
  EXPECT_TRUE(problem_->IsRepair(repair));
  EXPECT_EQ(RepairFamilyName(RepairFamily::kGlobal), "G-Rep");
}

TEST_F(SmokeBuild, Repair) {
  EXPECT_EQ(problem_->CountRepairs().ToString(), "4");
  Rng rng(7);
  EXPECT_TRUE(problem_->IsRepair(GreedyRandomRepair(problem_->graph(), rng)));
}

TEST_F(SmokeBuild, Cleaning) {
  Priority empty = Priority::Empty(problem_->graph());
  CleaningReport report =
      CleanWithPolicy(*problem_, empty, UnresolvedConflictPolicy::kRemove);
  EXPECT_EQ(report.kept.Count(), 0);
}

TEST_F(SmokeBuild, Denial) {
  auto dc = DenialConstraint::FromFd(*instance_.db, instance_.fds[0], 1);
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  auto hyperedges = FindHyperedges(*instance_.db, {*dc});
  ASSERT_TRUE(hyperedges.ok());
  EXPECT_EQ(hyperedges->size(), 2u);
}

TEST_F(SmokeBuild, Query) {
  auto query = ParseQuery("exists x, y . R(x, y)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto holds = EvalClosed(*instance_.db, nullptr, **query);
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
}

TEST_F(SmokeBuild, Cqa) {
  Priority empty = Priority::Empty(problem_->graph());
  auto query = ParseQuery("exists x, y . R(x, y)");
  ASSERT_TRUE(query.ok());
  auto verdict = PlannedConsistentAnswer(*problem_, empty,
                                         RepairFamily::kAll, **query);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, CqaVerdict::kCertainlyTrue);
  EXPECT_EQ(AggregateFunctionName(AggregateFunction::kCount), "COUNT");
}

TEST_F(SmokeBuild, Sql) {
  auto query = ParseSqlBoolean(*instance_.db, "SELECT * FROM R r");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto holds = EvalClosed(*instance_.db, nullptr, **query);
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
}

TEST_F(SmokeBuild, Workload) {
  GeneratedInstance chain = MakeChainInstance(5);
  EXPECT_EQ(chain.db->tuple_count(), 5);
}

}  // namespace
}  // namespace prefrep
