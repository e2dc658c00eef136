// The paper's running example (Examples 1-3), end to end: integrating
// three consistent sources produces an inconsistent Mgr relation; data
// cleaning with partial reliability information leaves it inconsistent
// and answers Q2 incorrectly; preference-driven consistent query
// answering returns the intended answer.
//
// Run: ./manager_integration

#include <cstdio>
#include <string>

#include "cleaning/cleaning.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "query/parser.h"
#include "workload/generators.h"

using namespace prefrep;

namespace {

void PrintVerdict(const char* label, CqaVerdict verdict) {
  std::printf("%-46s %s\n", label, std::string(CqaVerdictName(verdict)).c_str());
}

}  // namespace

int main() {
  MgrScenario s = MakeMgrScenario();
  std::printf("== Example 1: integrated database r = s1 ∪ s2 ∪ s3 ==\n");
  for (TupleId id = 0; id < s.db->tuple_count(); ++id) {
    std::printf("  %s\n", s.db->DescribeTuple(id).c_str());
  }

  auto problem = RepairProblem::Create(s.db.get(), s.fds);
  CHECK(problem.ok());
  std::printf("\nFDs: Dept -> Name Salary Reports ; Name -> Dept Salary "
              "Reports\nconflicts: %d\n",
              problem->graph().edge_count());

  auto q1 = ParseQuery(
      "exists x1,y1,z1,x2,y2,z2 . Mgr(Mary,x1,y1,z1) and "
      "Mgr(John,x2,y2,z2) and y1 < y2");
  auto q2 = ParseQuery(
      "exists x1,y1,z1,x2,y2,z2 . Mgr(Mary,x1,y1,z1) and "
      "Mgr(John,x2,y2,z2) and y1 > y2 and z1 < z2");
  CHECK(q1.ok() && q2.ok());

  auto q1_in_r = EvalClosed(*s.db, nullptr, **q1);
  std::printf("\nQ1 (John earns more than Mary) in r: %s  <- misleading!\n",
              *q1_in_r ? "true" : "false");

  std::printf("\n== Example 2: repairs of r ==\n");
  problem->EnumerateRepairs([&](const DynamicBitset& repair) {
    std::printf("  repair:");
    ForEachSetBit(repair, [&](int id) {
      std::printf(" %s", s.db->TupleOf(id).ToString().c_str());
    });
    std::printf("\n");
    return true;
  });
  Priority empty = Priority::Empty(problem->graph());
  PrintVerdict("Q1 under Rep (no preferences):",
               *PlannedConsistentAnswer(*problem, empty, RepairFamily::kAll,
                                        **q1));
  PrintVerdict("Q2 under Rep (no preferences):",
               *PlannedConsistentAnswer(*problem, empty, RepairFamily::kAll,
                                        **q2));

  std::printf("\n== Example 3: source s3 is less reliable than s1, s2 ==\n");
  auto priority = PriorityFromSourceReliability(*problem, {0, 1, 1, 0});
  CHECK(priority.ok());
  std::printf("priority: %s\n", priority->ToString().c_str());

  std::printf("\n-- data cleaning baseline (keep unresolved) --\n");
  CleaningReport report = CleanWithPolicy(*problem, *priority,
                                          UnresolvedConflictPolicy::kKeep);
  std::printf("%s", report.Summary(*s.db).c_str());
  Database cleaned = s.db->Induce(report.kept);
  std::printf("cleaned database consistent? %s\n",
              *IsConsistent(cleaned, s.fds) ? "yes" : "NO — still broken");
  auto q2_cleaned = EvalClosed(*s.db, &report.kept, **q2);
  std::printf("Q2 in cleaned database: %s  <- wrong answer\n",
              *q2_cleaned ? "true" : "false");

  std::printf("\n-- preference-driven consistent query answers --\n");
  for (RepairFamily family :
       {RepairFamily::kLocal, RepairFamily::kSemiGlobal, RepairFamily::kGlobal,
        RepairFamily::kCommon}) {
    auto verdict =
        PlannedConsistentAnswer(*problem, *priority, family, **q2);
    CHECK(verdict.ok());
    std::printf("Q2 under %-6s: %s\n",
                std::string(RepairFamilyName(family)).c_str(),
                std::string(CqaVerdictName(*verdict)).c_str());
  }
  std::printf("\nthe preferred repairs keep the reliable information and\n"
              "answer Q2 = certainly-true, matching the paper's intuition.\n");
  return 0;
}
