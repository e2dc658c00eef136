#include "repair/repair.h"

namespace prefrep {

Result<RepairProblem> RepairProblem::Create(
    const Database* db, std::vector<FunctionalDependency> fds) {
  CHECK(db != nullptr);
  PREFREP_ASSIGN_OR_RETURN(std::vector<ConflictEdge> edges,
                           FindConflicts(*db, fds));
  RepairProblem problem;
  problem.db_ = db;
  problem.fds_ = std::move(fds);
  problem.graph_ = ConflictGraph(db->tuple_count(), edges);
  return problem;
}

RepairProblem RepairProblem::FromPrecomputedGraph(
    const Database* db, std::vector<FunctionalDependency> fds,
    ConflictGraph graph) {
  CHECK(db != nullptr);
  CHECK_EQ(graph.vertex_count(), db->tuple_count());
  RepairProblem problem;
  problem.db_ = db;
  problem.fds_ = std::move(fds);
  problem.graph_ = std::move(graph);
  return problem;
}

}  // namespace prefrep
