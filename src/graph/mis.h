// Maximal-independent-set search: the repair space of a database.
//
// MisEngine runs Bron–Kerbosch with pivoting (on the complement graph,
// expressed directly with vicinity masks) as an explicit stack over pooled
// frames — no bitset is allocated per search node. It searches one graph,
// typically one component's compact subgraph. Whole-graph enumeration of
// the repair space (decomposition, per-component lists under the byte
// budget, the lazy product and the streaming fallback) is the Rep family
// of core/families.h: ForEachPreferredRepair with RepairFamily::kAll.
// Counting multiplies per-component counts in exact BigUint arithmetic
// (Example 4 exhibits 2^n repairs).

#ifndef PREFREP_GRAPH_MIS_H_
#define PREFREP_GRAPH_MIS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "base/biguint.h"
#include "base/bitset.h"
#include "base/exec_context.h"
#include "base/status.h"
#include "graph/conflict_graph.h"

namespace prefrep {

// Iterative Bron–Kerbosch over one (typically component-compact) graph.
// Frames and the vicinity masks are allocated once per engine and reused
// across Enumerate calls; the search itself never touches the heap.
// Callbacks receive a reference to the engine's chosen-set scratch — copy
// it to keep it.
class MisEngine {
 public:
  // `context`, when set, is polled at every frame pop; an interrupt stops
  // the search (Enumerate returns false).
  explicit MisEngine(const ConflictGraph& graph,
                     ExecutionContext* context = nullptr);
  MisEngine(const MisEngine&) = delete;
  MisEngine& operator=(const MisEngine&) = delete;

  // Visits every maximal independent set exactly once; the callback returns
  // false to stop early. Returns true iff enumeration ran to completion.
  template <typename Callback>
  bool Enumerate(Callback&& callback) {
    chosen_.Clear();
    Frame& root = FrameAt(0);
    root.candidates = DynamicBitset::AllSet(vertex_count_);
    root.excluded.Clear();
    root.entering = true;
    int depth = 0;
    while (depth >= 0) {
      if (context_ != nullptr && context_->ShouldStop()) return false;
      Frame& frame = *frames_[depth];
      if (frame.entering) {
        frame.entering = false;
        if (frame.candidates.None() && frame.excluded.None()) {
          if (!callback(static_cast<const DynamicBitset&>(chosen_))) {
            return false;
          }
          --depth;
          continue;
        }
        // Pivot u ∈ candidates ∪ excluded minimizing |candidates ∩
        // vicinity(u)|: branching is then bounded to candidates inside u's
        // vicinity. `branch` doubles as the pivot-pool scratch.
        frame.branch.AssignOr(frame.candidates, frame.excluded);
        int pivot = -1;
        int best = std::numeric_limits<int>::max();
        ForEachSetBit(frame.branch, [&](int u) {
          int c = frame.candidates.IntersectionCount(vicinity_[u]);
          if (c < best) {
            best = c;
            pivot = u;
          }
        });
        frame.branch.AssignAnd(frame.candidates, vicinity_[pivot]);
        frame.v = -1;
      }
      // Resume iteration over the frame's branch vertices: retire the
      // previous branch vertex (un-choose, move candidates → excluded),
      // then descend into the next one.
      if (frame.v >= 0) {
        chosen_.Reset(frame.v);
        frame.candidates.Reset(frame.v);
        frame.excluded.Set(frame.v);
      }
      int v = frame.branch.NextSetBit(frame.v + 1);
      if (v < 0) {
        --depth;
        continue;
      }
      frame.v = v;
      chosen_.Set(v);
      Frame& child = FrameAt(depth + 1);
      const DynamicBitset& vicinity = vicinity_[v];
      child.candidates.AssignDifference(frame.candidates, vicinity);
      child.excluded.AssignDifference(frame.excluded, vicinity);
      child.entering = true;
      ++depth;
    }
    return true;
  }

  const ConflictGraph& graph() const { return graph_; }

 private:
  struct Frame {
    DynamicBitset candidates;
    DynamicBitset excluded;
    DynamicBitset branch;
    int v = -1;
    bool entering = true;
  };

  // Frames are pooled behind stable pointers: depth d's frame is allocated
  // the first time the search reaches it and reused afterwards.
  Frame& FrameAt(int depth);

  const ConflictGraph& graph_;
  ExecutionContext* context_;
  int vertex_count_;
  DynamicBitset chosen_;
  std::vector<DynamicBitset> vicinity_;
  std::vector<std::unique_ptr<Frame>> frames_;
};

// Exact number of maximal independent sets: MaskedMisSizeRange's count
// over graph.decomposition().
[[nodiscard]] BigUint CountMaximalIndependentSets(const ConflictGraph& graph);

class ComponentDecomposition;

struct MisSizeRange {
  int64_t lo = 0;
  int64_t hi = 0;
  BigUint count = BigUint::One();  // number of maximal independent sets
};

// The range of |S ∩ mask| over the maximal independent sets S of the
// decomposed graph (`mask` spans the full vertex set; an all-set mask
// gives the repair-size range), and their exact count. Sizes add and
// counts multiply over components, so this is the isolated vertices'
// share plus each component's extremes and count, streamed from one
// MisEngine pass over the component — no list is materialized. `context`,
// when set, is polled per component and inside each search; an interrupt
// returns its kCancelled / kDeadlineExceeded status.
[[nodiscard]] Result<MisSizeRange> MaskedMisSizeRange(
    const ComponentDecomposition& decomposition, const DynamicBitset& mask,
    ExecutionContext* context = nullptr);

}  // namespace prefrep

#endif  // PREFREP_GRAPH_MIS_H_
