#include "graph/mis.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "graph/components.h"

namespace prefrep {

MisEngine::MisEngine(const ConflictGraph& graph, ExecutionContext* context)
    : graph_(graph),
      context_(context),
      vertex_count_(graph.vertex_count()),
      chosen_(vertex_count_) {
  vicinity_.reserve(vertex_count_);
  for (int v = 0; v < vertex_count_; ++v) {
    vicinity_.push_back(graph.Vicinity(v));
  }
}

MisEngine::Frame& MisEngine::FrameAt(int depth) {
  while (static_cast<int>(frames_.size()) <= depth) {
    auto frame = std::make_unique<Frame>();
    frame->candidates = DynamicBitset(vertex_count_);
    frame->excluded = DynamicBitset(vertex_count_);
    frame->branch = DynamicBitset(vertex_count_);
    frames_.push_back(std::move(frame));
  }
  return *frames_[depth];
}

BigUint CountMaximalIndependentSets(const ConflictGraph& graph) {
  return MaskedMisSizeRange(graph.decomposition(),
                            DynamicBitset::AllSet(graph.vertex_count()))
      ->count;
}

Result<MisSizeRange> MaskedMisSizeRange(
    const ComponentDecomposition& decomposition, const DynamicBitset& mask,
    ExecutionContext* context) {
  MisSizeRange range;
  range.lo = range.hi = decomposition.isolated().IntersectionCount(mask);
  const std::vector<GraphComponent>& components = decomposition.components();
  for (size_t c = 0; c < components.size(); ++c) {
    if (context != nullptr && context->ShouldStop()) {
      return context->StatusWithStats();
    }
    DynamicBitset local_mask(components[c].graph.vertex_count());
    decomposition.Gather(static_cast<int>(c), mask, local_mask);
    int comp_min = std::numeric_limits<int>::max();
    int comp_max = 0;
    uint64_t comp_count = 0;
    MisEngine engine(components[c].graph, context);
    engine.Enumerate([&](const DynamicBitset& mis) {
      int size = mis.IntersectionCount(local_mask);
      comp_min = std::min(comp_min, size);
      comp_max = std::max(comp_max, size);
      ++comp_count;
      return true;
    });
    // An interrupted search saw a prefix of the component's sets, whose
    // extremes say nothing about the component.
    if (context != nullptr && context->interrupted()) {
      return context->StatusWithStats();
    }
    if (context != nullptr) context->stats().AddComponentsCompleted();
    range.lo += comp_min;
    range.hi += comp_max;
    range.count *= BigUint(comp_count);
  }
  return range;
}

}  // namespace prefrep
