// Repairs (Definition 1): maximal subsets of the database consistent with
// the functional dependencies == maximal independent sets of the conflict
// graph. RepairProblem bundles a database, its FDs and the derived conflict
// graph — the common input of everything in src/core and src/cqa. The
// repairs themselves are the Rep family of core/families.h: stream them
// with ForEachPreferredRepair or list them with PreferredRepairs under
// RepairFamily::kAll (which reads no priority).

#ifndef PREFREP_REPAIR_REPAIR_H_
#define PREFREP_REPAIR_REPAIR_H_

#include <vector>

#include "base/biguint.h"
#include "base/bitset.h"
#include "base/status.h"
#include "constraints/conflicts.h"
#include "constraints/fd.h"
#include "graph/conflict_graph.h"
#include "graph/mis.h"
#include "relational/database.h"

namespace prefrep {

class RepairProblem {
 public:
  // Builds the conflict graph of `db` w.r.t. `fds`. The database must
  // outlive the problem.
  static Result<RepairProblem> Create(const Database* db,
                                      std::vector<FunctionalDependency> fds);

  // Adopts an already-computed conflict graph instead of re-running
  // detection — the incremental snapshot derivation (server/snapshot.h)
  // maintains the graph under deltas and hands it over here. The caller
  // guarantees `graph` IS the conflict graph of (db, fds); nothing is
  // re-verified.
  static RepairProblem FromPrecomputedGraph(const Database* db,
                                            std::vector<FunctionalDependency> fds,
                                            ConflictGraph graph);

  const Database& db() const { return *db_; }
  const std::vector<FunctionalDependency>& fds() const { return fds_; }
  const ConflictGraph& graph() const { return graph_; }
  int tuple_count() const { return graph_.vertex_count(); }

  // True iff the subset contains no conflicting pair (is consistent).
  bool IsConsistentSubset(const DynamicBitset& subset) const {
    return graph_.IsIndependent(subset);
  }
  // True iff `subset` is a repair: maximal consistent subset.
  bool IsRepair(const DynamicBitset& subset) const {
    return graph_.IsMaximalIndependent(subset);
  }

  // Exact repair count (2^n for Example 4's r_n).
  BigUint CountRepairs() const { return CountMaximalIndependentSets(graph_); }

  // The repair as a materialized database.
  Database MaterializeRepair(const DynamicBitset& repair) const {
    return db_->Induce(repair);
  }

 private:
  const Database* db_ = nullptr;
  std::vector<FunctionalDependency> fds_;
  ConflictGraph graph_;
};

}  // namespace prefrep

#endif  // PREFREP_REPAIR_REPAIR_H_
