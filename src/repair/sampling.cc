#include "repair/sampling.h"

#include <string>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "graph/mis.h"

namespace prefrep {

Result<RepairSampler> RepairSampler::Create(const ConflictGraph* graph,
                                            size_t per_component_limit) {
  CHECK(graph != nullptr);
  RepairSampler sampler;
  sampler.graph_ = graph;
  const ComponentDecomposition& decomposition = graph->decomposition();
  sampler.isolated_ = decomposition.isolated();
  const std::vector<GraphComponent>& components = decomposition.components();
  for (size_t c = 0; c < components.size(); ++c) {
    // Stop one set past the limit: refusing a huge component must not
    // cost its whole enumeration.
    std::vector<DynamicBitset> choices;
    MisEngine engine(components[c].graph);
    bool complete = engine.Enumerate([&](const DynamicBitset& local) {
      if (choices.size() == per_component_limit) return false;
      choices.emplace_back(graph->vertex_count());
      decomposition.Scatter(static_cast<int>(c), local, choices.back());
      return true;
    });
    if (!complete) {
      return Status::ResourceExhausted(
          "component with more than " + std::to_string(per_component_limit) +
          " repairs exceeds the sampling limit");
    }
    sampler.component_choices_.push_back(std::move(choices));
  }
  return sampler;
}

DynamicBitset RepairSampler::Sample(Rng& rng) const {
  DynamicBitset repair = isolated_;
  for (const std::vector<DynamicBitset>& choices : component_choices_) {
    repair |= choices[rng.UniformInt(choices.size())];
  }
  DCHECK(graph_->IsMaximalIndependent(repair));
  return repair;
}

BigUint RepairSampler::RepairCount() const {
  BigUint count = BigUint::One();
  for (const std::vector<DynamicBitset>& choices : component_choices_) {
    count *= BigUint(choices.size());
  }
  return count;
}

DynamicBitset GreedyRandomRepair(const ConflictGraph& graph, Rng& rng) {
  int n = graph.vertex_count();
  DynamicBitset repair(n);
  DynamicBitset blocked(n);
  for (int v : rng.Permutation(n)) {
    if (blocked.Test(v)) continue;
    repair.Set(v);
    blocked.Set(v);
    blocked |= graph.Neighbors(v);
  }
  DCHECK(graph.IsMaximalIndependent(repair));
  return repair;
}

}  // namespace prefrep
