// Tests for src/sql: the SELECT-FROM-WHERE front end and its integration
// with consistent query answering.

#include <gtest/gtest.h>

#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "query/evaluator.h"
#include "sql/sql.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

TEST(SqlTest, SimpleSelectTranslatesToOpenQuery) {
  MgrScenario s = MakeMgrScenario();
  auto q = ParseSql(*s.db, "SELECT m.Name FROM Mgr m");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->FreeVariables(), (std::set<std::string>{"m.Name"}));
  auto answer = EvalOpen(*s.db, nullptr, **q);
  ASSERT_TRUE(answer.ok());
  // Distinct names: John and Mary.
  ASSERT_EQ(answer->rows.size(), 2u);
}

TEST(SqlTest, WhereFiltersRows) {
  MgrScenario s = MakeMgrScenario();
  auto q = ParseSql(*s.db,
                    "SELECT m.Dept FROM Mgr m WHERE m.Salary > 25000");
  ASSERT_TRUE(q.ok());
  auto answer = EvalOpen(*s.db, nullptr, **q);
  ASSERT_TRUE(answer.ok());
  // Salaries above 25k: Mary-R&D (40k) and John-PR (30k).
  ASSERT_EQ(answer->rows.size(), 2u);
  EXPECT_EQ(answer->rows[0], Tuple::Of(Value::Name("PR")));
  EXPECT_EQ(answer->rows[1], Tuple::Of(Value::Name("R&D")));
}

TEST(SqlTest, SelfJoinWithAliases) {
  MgrScenario s = MakeMgrScenario();
  // Q1 as SQL: is there a Mary-row and a John-row with Mary's salary less?
  auto q = ParseSqlBoolean(
      *s.db,
      "SELECT m.Name FROM Mgr m, Mgr j "
      "WHERE m.Name = 'Mary' AND j.Name = 'John' AND m.Salary < j.Salary");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE((*q)->IsClosed());
  auto holds = EvalClosed(*s.db, nullptr, **q);
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);  // misleading answer on the inconsistent database
}

TEST(SqlTest, BooleanSqlDrivesCqa) {
  MgrScenario s = MakeMgrScenario();
  auto problem = RepairProblem::Create(s.db.get(), s.fds);
  ASSERT_TRUE(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  auto q = ParseSqlBoolean(
      *s.db,
      "SELECT m.Name FROM Mgr m, Mgr j "
      "WHERE m.Name = 'Mary' AND j.Name = 'John' AND m.Salary < j.Salary");
  ASSERT_TRUE(q.ok());
  auto verdict =
      PlannedConsistentAnswer(*problem, empty, RepairFamily::kAll, **q);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(*verdict, CqaVerdict::kUndetermined);
}

TEST(SqlTest, SelectStarKeepsAllColumnsFree) {
  GeneratedInstance rn = MakeRnInstance(1);
  auto q = ParseSql(*rn.db, "SELECT * FROM R");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->FreeVariables(),
            (std::set<std::string>{"R.A", "R.B"}));
  auto answer = EvalOpen(*rn.db, nullptr, **q);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->rows.size(), 2u);
}

TEST(SqlTest, OrAndNotAndParentheses) {
  MgrScenario s = MakeMgrScenario();
  auto q = ParseSql(*s.db,
                    "SELECT m.Name FROM Mgr m "
                    "WHERE NOT (m.Dept = 'IT' OR m.Dept = 'PR') "
                    "AND m.Salary >= 10000");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto answer = EvalOpen(*s.db, nullptr, **q);
  ASSERT_TRUE(answer.ok());
  // R&D rows only: Mary and John.
  EXPECT_EQ(answer->rows.size(), 2u);
}

TEST(SqlTest, StringAndNumberLiterals) {
  MgrScenario s = MakeMgrScenario();
  auto q = ParseSql(
      *s.db, "SELECT m.Salary FROM Mgr m WHERE m.Name = 'Mary'");
  ASSERT_TRUE(q.ok());
  auto answer = EvalOpen(*s.db, nullptr, **q);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->rows.size(), 2u);  // 40k and 20k
}

TEST(SqlTest, Errors) {
  MgrScenario s = MakeMgrScenario();
  EXPECT_FALSE(ParseSql(*s.db, "").ok());
  EXPECT_FALSE(ParseSql(*s.db, "SELECT FROM Mgr m").ok());
  EXPECT_FALSE(ParseSql(*s.db, "SELECT m.Name FROM Nope m").ok());
  EXPECT_FALSE(ParseSql(*s.db, "SELECT m.Name FROM Mgr m, Mgr m").ok());
  EXPECT_FALSE(ParseSql(*s.db, "SELECT m.Nope FROM Mgr m").ok());
  EXPECT_FALSE(
      ParseSql(*s.db, "SELECT m.Name FROM Mgr m WHERE x.Name = 'a'").ok());
  EXPECT_FALSE(
      ParseSql(*s.db, "SELECT m.Name FROM Mgr m WHERE m.Name =").ok());
  EXPECT_FALSE(ParseSql(*s.db, "SELECT m.Name FROM Mgr m extra").ok());
  EXPECT_FALSE(ParseSql(*s.db, "SELECT m.Name FROM Mgr m WHERE "
                               "(m.Salary > 1").ok());
}

// `depth` copies of `open`, then `core`, then `depth` copies of `close`.
std::string Nest(const std::string& open, int depth, const std::string& core,
                 const std::string& close = "") {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open;
  out += core;
  for (int i = 0; i < depth; ++i) out += close;
  return out;
}

TEST(SqlTest, HostileNestingIsAParseErrorNotACrash) {
  MgrScenario s = MakeMgrScenario();
  const std::string prefix = "SELECT m.Name FROM Mgr m WHERE ";
  const std::string core = "m.Salary > 0";
  for (int depth : {100000, 1000}) {
    for (const std::string& text :
         {prefix + Nest("NOT ", depth, core),
          prefix + Nest("(", depth, core, ")")}) {
      for (bool boolean : {false, true}) {
        auto q = boolean ? ParseSqlBoolean(*s.db, text)
                         : ParseSql(*s.db, text);
        if (depth == 1000) {
          EXPECT_TRUE(q.ok()) << q.status().ToString();
          continue;
        }
        ASSERT_FALSE(q.ok()) << text.substr(0, 60);
        EXPECT_EQ(q.status().code(), StatusCode::kParseError)
            << q.status().ToString();
      }
    }
  }
}

TEST(SqlTest, ErrorsCarryPositions) {
  MgrScenario s = MakeMgrScenario();
  for (const char* bad : {"SELECT m.Name FROM Mgr m WHERE m.Name = 'Mary",
                          "SELECT m.Name FROM Mgr m WHERE m.Salary ! 3",
                          "SELECT m.Name FROM Mgr m WHERE m.Salary = @"}) {
    auto q = ParseSql(*s.db, bad);
    ASSERT_FALSE(q.ok()) << bad;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << bad;
    EXPECT_NE(q.status().message().find("position"), std::string::npos)
        << q.status().ToString();
  }
}

TEST(SqlTest, CaseInsensitiveKeywords) {
  MgrScenario s = MakeMgrScenario();
  auto q = ParseSql(*s.db,
                    "select m.Name from Mgr m where m.Salary < 30000");
  ASSERT_TRUE(q.ok());
  auto answer = EvalOpen(*s.db, nullptr, **q);
  ASSERT_TRUE(answer.ok());
  // Salaries below 30k: John-R&D (10k) and Mary-IT (20k).
  EXPECT_EQ(answer->rows.size(), 2u);
}

}  // namespace
}  // namespace prefrep
