// Salary audit: aggregates over an inconsistent payroll built from two
// disagreeing HR extracts. Shows range-consistent aggregation (MIN / MAX /
// SUM / AVG / COUNT) under plain Rep vs a timestamp preference, the
// polynomial COUNT(*) range, SQL-driven certain answers, and a DOT dump
// of the conflict graph with its orientation.
//
// Run: ./salary_audit

#include <cstdio>
#include <string>

#include "cleaning/cleaning.h"
#include "cqa/aggregation.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "graph/dot.h"
#include "sql/sql.h"

using namespace prefrep;

int main() {
  Database db;
  Schema schema = *Schema::Create(
      "Payroll", {Attribute{"Name", ValueType::kName},
                  Attribute{"Salary", ValueType::kNumber}});
  CHECK(db.AddRelation(schema).ok());
  auto insert = [&](const char* name, int64_t salary, int64_t ts) {
    CHECK(db.Insert("Payroll",
                    Tuple::Of(Value::Name(name), Value::Number(salary)),
                    TupleMeta{TupleMeta::kNoSource, ts})
              .ok());
  };
  // Extract A (ts=1) vs extract B (ts=2) disagree on ada and bob.
  insert("ada", 120, 1);
  insert("ada", 135, 2);
  insert("bob", 90, 1);
  insert("bob", 80, 2);
  insert("cleo", 100, 1);  // undisputed

  std::vector<FunctionalDependency> fds = {
      *FunctionalDependency::Parse(schema, "Name -> Salary")};
  auto problem = RepairProblem::Create(&db, fds);
  CHECK(problem.ok());
  Priority empty = Priority::Empty(problem->graph());
  Priority newest = PriorityFromTimestamps(*problem, /*newer_wins=*/true);

  std::printf("payroll (%d tuples, %d conflicts, %s repairs)\n\n",
              db.tuple_count(), problem->graph().edge_count(),
              problem->CountRepairs().ToString().c_str());

  std::printf("conflict graph with the timestamp orientation (DOT):\n%s\n",
              ToDot(problem->graph(), &newest, [&](int id) {
                return db.TupleOf(id).ToString();
              }).c_str());

  struct Row {
    AggregateFunction fn;
    const char* label;
  } rows[] = {
      {AggregateFunction::kMin, "MIN(Salary)"},
      {AggregateFunction::kMax, "MAX(Salary)"},
      {AggregateFunction::kSum, "SUM(Salary)"},
      {AggregateFunction::kAvg, "AVG(Salary)"},
      {AggregateFunction::kCount, "COUNT(*)"},
  };
  std::printf("%-14s | %-22s | %s\n", "aggregate", "Rep range",
              "newest-wins G-Rep range");
  for (const Row& row : rows) {
    auto rep = PlannedAggregateRange(*problem, empty, RepairFamily::kAll,
                                     "Payroll", "Salary", row.fn);
    auto pref = PlannedAggregateRange(*problem, newest, RepairFamily::kGlobal,
                                      "Payroll", "Salary", row.fn);
    CHECK(rep.ok() && pref.ok());
    std::printf("%-14s | %-22s | %s\n", row.label,
                rep->ToString().c_str(), pref->ToString().c_str());
  }

  auto count_star = CountStarRange(*problem, "Payroll");
  CHECK(count_star.ok());
  std::printf("\npolynomial COUNT(*) range (component decomposition): %s\n",
              count_star->ToString().c_str());

  // SQL: who certainly earns at least 130? Only the newer extract says
  // ada does, so the answer depends on the preference.
  auto sql = ParseSql(db,
                      "SELECT p.Name FROM Payroll p WHERE p.Salary >= 130");
  CHECK(sql.ok()) << sql.status().ToString();
  auto certain = PlannedConsistentAnswers(*problem, newest,
                                          RepairFamily::kGlobal, **sql);
  CHECK(certain.ok());
  std::printf("\ncertainly earning >= 130 (newest-wins, G-Rep):\n");
  for (const Tuple& row : certain->rows) {
    std::printf("  %s\n", row.ToString().c_str());
  }
  auto baseline = PlannedConsistentAnswers(*problem, empty,
                                           RepairFamily::kAll, **sql);
  CHECK(baseline.ok());
  std::printf("under plain Rep the certain set has %zu row(s) — the\n"
              "newest-wins preference turns ada's raise into a certain "
              "fact.\n",
              baseline->rows.size());
  return 0;
}
