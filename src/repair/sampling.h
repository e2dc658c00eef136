// Repair-space sampling.
//
// Exact consistent answers range over *all* (preferred) repairs, which is
// intractable at scale (Fig. 5). A pragmatic downstream tool is sampling:
// estimate the probability that a query holds across repairs, spot-check
// family membership rates, or drive property tests. Because the repair
// space factorizes over connected components of the conflict graph,
// *exactly uniform* sampling is feasible whenever each component's
// maximal-independent-set list is enumerable: sample one MIS per
// component independently and take the union.
//
// GreedyRandomRepair is the cheap non-uniform alternative (random
// permutation, greedy maximal extension) usable on arbitrary instances.

#ifndef PREFREP_REPAIR_SAMPLING_H_
#define PREFREP_REPAIR_SAMPLING_H_

#include <vector>

#include "base/biguint.h"
#include "base/random.h"
#include "base/status.h"
#include "graph/conflict_graph.h"

namespace prefrep {

// Exactly uniform repair sampling via per-component MIS lists.
class RepairSampler {
 public:
  // Materializes each component's repair list; fails with
  // kResourceExhausted if some component has more than
  // `per_component_limit` maximal independent sets (its search stops at
  // the first set past the limit).
  static Result<RepairSampler> Create(const ConflictGraph* graph,
                                      size_t per_component_limit = 1u << 16);

  // A repair drawn uniformly from the full repair space.
  DynamicBitset Sample(Rng& rng) const;

  // Exact size of the sample space (product of per-component counts).
  BigUint RepairCount() const;

 private:
  const ConflictGraph* graph_ = nullptr;
  DynamicBitset isolated_;  // vertices present in every repair
  std::vector<std::vector<DynamicBitset>> component_choices_;
};

// A maximal independent set built by inserting vertices in uniformly
// random order (fast; NOT uniform over repairs in general).
[[nodiscard]] DynamicBitset GreedyRandomRepair(const ConflictGraph& graph,
                                               Rng& rng);

}  // namespace prefrep

#endif  // PREFREP_REPAIR_SAMPLING_H_
