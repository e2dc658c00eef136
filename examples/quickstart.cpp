// Quickstart: build an inconsistent database, inspect its repairs, add a
// priority, and compare consistent answers across the preferred-repair
// families (Rep, L-Rep, S-Rep, G-Rep, C-Rep).
//
// Run: ./quickstart

#include <cstdio>
#include <string>

#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "query/parser.h"
#include "repair/repair.h"

using namespace prefrep;

int main() {
  // A projects table where Lead is supposed to be determined by Project.
  Database db;
  Schema schema = *Schema::Create(
      "Proj", {Attribute{"Project", ValueType::kName},
               Attribute{"Lead", ValueType::kName},
               Attribute{"Budget", ValueType::kNumber}});
  CHECK(db.AddRelation(schema).ok());

  auto insert = [&](const char* project, const char* lead, int64_t budget,
                    int source) {
    auto id = db.Insert("Proj",
                        Tuple::Of(Value::Name(project), Value::Name(lead),
                                  Value::Number(budget)),
                        TupleMeta{source, TupleMeta::kNoTimestamp});
    CHECK(id.ok()) << id.status().ToString();
    return *id;
  };
  // Two sources disagree about who leads "apollo" and its budget.
  TupleId apollo_ada = insert("apollo", "ada", 100, /*source=*/1);
  TupleId apollo_bob = insert("apollo", "bob", 80, /*source=*/2);
  insert("zephyr", "cleo", 50, 1);

  std::vector<FunctionalDependency> fds = {
      *FunctionalDependency::Parse(schema, "Project -> Lead Budget")};

  auto problem = RepairProblem::Create(&db, fds);
  CHECK(problem.ok()) << problem.status().ToString();

  std::printf("database:\n%s\n", db.ToString().c_str());
  std::printf("conflicts: %d, repairs: %s\n\n",
              problem->graph().edge_count(),
              problem->CountRepairs().ToString().c_str());

  // The repairs are the Rep family, which reads no priority.
  auto repairs =
      PreferredRepairs(problem->graph(), Priority(), RepairFamily::kAll);
  CHECK(repairs.ok()) << repairs.status().ToString();
  for (const DynamicBitset& repair : *repairs) {
    std::printf("repair %s\n", repair.ToString().c_str());
  }

  // A closed query: does apollo have a budget of at least 90?
  auto query = ParseQuery(
      "exists l, b . Proj('apollo', l, b) and b >= 90");
  CHECK(query.ok()) << query.status().ToString();

  // Without preferences: the classic Arenas-Bertossi-Chomicki semantics.
  Priority empty = Priority::Empty(problem->graph());
  auto verdict = PlannedConsistentAnswer(*problem, empty,
                                         RepairFamily::kAll, **query);
  std::printf("\nno priority, Rep semantics: %s\n",
              std::string(CqaVerdictName(*verdict)).c_str());

  // Trust source 1 over source 2.
  auto priority =
      Priority::Create(problem->graph(), {{apollo_ada, apollo_bob}});
  CHECK(priority.ok());
  for (RepairFamily family : kAllFamilies) {
    auto preferred = PlannedConsistentAnswer(*problem, *priority, family,
                                             **query);
    CHECK(preferred.ok());
    std::printf("with priority, %-6s: %s\n",
                std::string(RepairFamilyName(family)).c_str(),
                std::string(CqaVerdictName(*preferred)).c_str());
  }

  // Open query: which (project, lead) pairs are certain under G-Rep?
  auto open = ParseQuery("Proj(p, l, b)");
  CHECK(open.ok());
  auto answers = PlannedConsistentAnswers(*problem, *priority,
                                          RepairFamily::kGlobal, **open);
  CHECK(answers.ok());
  std::printf("\ncertain Proj rows under G-Rep:\n");
  for (const Tuple& row : answers->rows) {
    std::printf("  %s\n", row.ToString().c_str());
  }
  return 0;
}
