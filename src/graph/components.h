// Connected-component decomposition of a conflict graph.
//
// Conflicts and priorities both live on conflict edges, so every repair
// notion in the paper decomposes over connected components: a set is a
// (preferred) repair of the whole graph iff its restriction to each
// component is a (preferred) repair of that component (Staworko-Chomicki-
// Marcinkowski exploit the same structure). This header holds the pieces
// of that product: the decomposition into compact per-component universes
// and ComponentProductEnumerator, the odometer over per-component choice
// lists, whole or cut into boxes (EnumerateSlices). Every engine reads a
// graph's one decomposition through ConflictGraph::decomposition(), which
// builds it once per graph; Snapshot::Derive builds a successor's
// incrementally from its parent's and installs it. The one walk that
// materializes the lists under the byte budget and drives the odometer —
// on the calling thread or box by box on worker threads — is
// core/families.cc's (ForEachPreferredRepair, PreferredRepairs).

#ifndef PREFREP_GRAPH_COMPONENTS_H_
#define PREFREP_GRAPH_COMPONENTS_H_

#include <functional>
#include <vector>

#include "base/biguint.h"
#include "base/bitset.h"
#include "base/exec_context.h"
#include "graph/conflict_graph.h"

namespace prefrep {

// The compact subgraph induced by `vertices` (sorted ascending): local
// vertex i stands for global vertex vertices[i]. Every vertex of `graph`
// induces `graph` itself: its adjacency rows are shared, not rebuilt.
[[nodiscard]] ConflictGraph InducedSubgraph(const ConflictGraph& graph,
                                            const std::vector<int>& vertices);

// One non-singleton connected component in its compact local universe.
struct GraphComponent {
  std::vector<int> vertices;  // global ids, ascending; local i <-> vertices[i]
  ConflictGraph graph;        // induced subgraph over local ids
};

class ComponentDecomposition;

// Seed for the incremental decomposition constructor: how a parent
// decomposition maps onto a derived graph. Built by Snapshot::Derive
// (server/snapshot.h) from the delta's id remap and fresh conflict edges.
// A seed without a parent marks every vertex dirty: the from-scratch build.
struct DecompositionDeltaSeed {
  const ComponentDecomposition* parent = nullptr;
  // Old id → new id; -1 for deleted ids (DeltaRemap::old_to_new). Must be
  // monotone on survivors, as delta.h's canonical order guarantees.
  const std::vector<int>* old_to_new = nullptr;
  // Parent component indices invalidated by the delta, sorted unique: every
  // component with a deleted member or with a fresh-edge endpoint.
  std::vector<int> dirty_components;
  // NEW-id vertices whose component must be re-solved by BFS, sorted
  // unique: the surviving members of dirty components plus every endpoint
  // of a fresh edge. Disjoint from the carried components' vertices (a
  // fresh edge touching a clean component would have dirtied it).
  std::vector<int> dirty_vertices;
};

class ComponentDecomposition {
 public:
  // From scratch: the incremental form with every vertex dirty and no
  // parent. Engines do not call this; they read graph.decomposition().
  explicit ComponentDecomposition(const ConflictGraph& graph);

  // Incremental form: carries every clean parent component over (vertices
  // remapped, the local induced subgraph reused as-is — the monotone remap
  // preserves local structure bit-for-bit) and re-runs BFS only over the
  // dirty region of `graph`. Produces exactly the same decomposition as
  // ComponentDecomposition(graph): components ordered by smallest global
  // vertex, members ascending.
  ComponentDecomposition(const ConflictGraph& graph,
                         const DecompositionDeltaSeed& seed);

  int vertex_count() const { return vertex_count_; }

  // Non-singleton components, ordered by smallest global vertex.
  const std::vector<GraphComponent>& components() const { return components_; }

  // Degree-0 vertices; they belong to every repair of every family.
  const DynamicBitset& isolated() const { return isolated_; }

  // How this decomposition was obtained (delta diagnostics): components
  // carried over from a seed's clean parent components vs. components
  // actually built by BFS over the dirty region. A from-scratch
  // decomposition counts every component as rebuilt. Always:
  // carried + rebuilt == components().size().
  int carried_component_count() const { return carried_component_count_; }
  int rebuilt_component_count() const { return rebuilt_component_count_; }

  // Component index of a global vertex, or -1 for isolated vertices.
  int ComponentOf(int global_vertex) const {
    return component_of_[global_vertex];
  }
  // Local index of a global vertex within its component (-1 if isolated).
  int LocalIndex(int global_vertex) const {
    return local_index_[global_vertex];
  }

  // Overwrites the bits of component c in `global` with `local`'s bits;
  // bits outside the component are left untouched.
  void Scatter(int c, const DynamicBitset& local, DynamicBitset& global) const;
  // local = global restricted to component c (local universe).
  void Gather(int c, const DynamicBitset& global, DynamicBitset& local) const;

 private:
  int vertex_count_ = 0;
  std::vector<GraphComponent> components_;
  int carried_component_count_ = 0;
  int rebuilt_component_count_ = 0;
  DynamicBitset isolated_;
  std::vector<int> component_of_;
  std::vector<int> local_index_;
};

// Lazily enumerates the cross product of per-component choice lists as
// full-universe bitsets (isolated vertices always present). `choices[c]`
// holds local-universe bitsets for decomposition component c. The product
// is streamed through one reusable scratch bitset — no allocation per
// output — and the callback can stop enumeration early by returning false.
// The choice table is borrowed and read-only, so several enumerators (one
// per worker thread) can walk disjoint boxes of one table at once.
class ComponentProductEnumerator {
 public:
  // `choices` must outlive the enumerator. `context`, when set, is polled
  // at every odometer tick; an interrupt stops enumeration
  // (EnumerateSlices returns false).
  ComponentProductEnumerator(
      const ComponentDecomposition& decomposition,
      const std::vector<std::vector<DynamicBitset>>* choices,
      ExecutionContext* context = nullptr);

  // A constraint on one digit of the product: component `digit`'s choice
  // index ranges over [begin, end) instead of its full list.
  struct DigitRange {
    int digit;
    size_t begin;
    size_t end;
  };

  // Enumerates the box of the product where each constrained component
  // ranges over its DigitRange and every unconstrained component over its
  // full list (`ranges` may name each digit at most once), in odometer
  // order; returns true iff the box ran to completion. Empty `ranges` is
  // the whole product. Boxes that partition the full box partition the
  // product — this is how ForEachPreferredRepair (core/families.h) shards
  // the tier-2 folds across workers. Any empty range or empty choice list
  // makes the box a vacuously complete empty slice.
  bool EnumerateSlices(const std::vector<DigitRange>& ranges,
                       const std::function<bool(const DynamicBitset&)>& callback);

  // Exact product size in BigUint arithmetic.
  [[nodiscard]] BigUint Count() const;

 private:
  const ComponentDecomposition& decomposition_;
  const std::vector<std::vector<DynamicBitset>>* choices_;
  ExecutionContext* context_;
};

}  // namespace prefrep

#endif  // PREFREP_GRAPH_COMPONENTS_H_
