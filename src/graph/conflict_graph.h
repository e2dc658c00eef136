// Conflict graph (§2.1): vertices are tuples, edges join conflicting tuples.
//
// The conflict graph is the compact representation of the repair space: the
// repairs of the database are exactly the maximal independent sets of its
// conflict graph. Vertices are global TupleIds; adjacency is stored as one
// DynamicBitset per vertex so the optimality checks in src/core are
// word-parallel.
//
// Each per-vertex bitset is held through shared_ptr<const DynamicBitset>:
// once a graph is built its adjacency is immutable, so copying a graph (the
// component decomposition carries per-component local graphs this way) is a
// refcount bump per vertex, and DeriveFrom can build a successor graph that
// shares the untouched rows of its parent's adjacency instead of
// re-allocating O(V^2/64) bits — the dominant cost of graph construction,
// and what makes incremental snapshot derivation (server/snapshot.h) beat a
// full rebuild.
//
// Each graph also owns its connected-component decomposition
// (graph/components.h), built once on the first decomposition() call and
// shared by every copy of the graph, so every engine that decomposes reads
// the same component ids. Snapshot::Derive installs its incrementally
// built decomposition instead (AdoptDecomposition).

#ifndef PREFREP_GRAPH_CONFLICT_GRAPH_H_
#define PREFREP_GRAPH_CONFLICT_GRAPH_H_

#include <memory>
#include <utility>
#include <vector>

#include "base/bitset.h"

namespace prefrep {

class ComponentDecomposition;

class ConflictGraph {
 public:
  ConflictGraph() = default;

  // `edges` are unordered vertex pairs over [0, vertex_count); self-loops
  // are rejected by CHECK (a tuple never conflicts with itself).
  ConflictGraph(int vertex_count, const std::vector<std::pair<int, int>>& edges);

  // Fast path for callers that already hold the edge list in canonical
  // form — each pair (min, max), strictly ascending overall (sorted and
  // deduplicated): skips the normalize/sort/dedup pass of the public
  // constructor. The incremental snapshot derivation produces its merged
  // edge list in exactly this form. Canonicality is DCHECK-verified.
  static ConflictGraph FromSortedUniqueEdges(
      int vertex_count, std::vector<std::pair<int, int>> edges);

  // Successor-graph constructor for incremental snapshot derivation.
  // `edges` is the new graph's full edge list in canonical form (as in
  // FromSortedUniqueEdges). Vertices below `identity_limit` that are NOT in
  // `dirty` denote the same tuple as in `parent` with the same set of
  // neighbors; their adjacency bitsets are shared with the parent
  // (refcount bump, no allocation). Everything else gets a freshly built
  // bitset from `edges`.
  //
  // The universes need NOT coincide: a shared row keeps the parent's
  // size, and the graph's adjacency is therefore RAGGED — row v may be
  // sized to a different universe than vertex_count(). That is sound
  // because a clean identity vertex has every neighbor below
  // identity_limit <= min(vertex_count, parent.vertex_count()), so the
  // row read zero-extended (insert-heavy child, row smaller than the
  // universe) or truncated (delete-heavy child, row larger) is exactly
  // the child's neighborhood. Every adjacency consumer goes through the
  // ragged-tolerant DynamicBitset operations (base/bitset.h) or the
  // accessors below, which normalize where a sized value escapes
  // (Vicinity) and guard where an index could overrun a smaller row
  // (HasEdge). `identity_limit` must not exceed either universe; the
  // caller is responsible for `dirty` (sized vertex_count) covering every
  // identity vertex whose neighborhood changed — the randomized suites in
  // tests/incremental_snapshot_test.cc pin the resulting adjacency
  // against a from-scratch build for balanced and unbalanced deltas
  // alike.
  static ConflictGraph DeriveFrom(const ConflictGraph& parent,
                                  int vertex_count,
                                  std::vector<std::pair<int, int>> edges,
                                  int identity_limit,
                                  const DynamicBitset& dirty);

  int vertex_count() const { return vertex_count_; }
  int edge_count() const {
    return edges_ == nullptr ? 0 : static_cast<int>(edges_->size());
  }
  // Deduplicated, each pair normalized to (min, max), sorted.
  const std::vector<std::pair<int, int>>& edges() const {
    static const std::vector<std::pair<int, int>> kEmpty;
    return edges_ == nullptr ? kEmpty : *edges_;
  }

  // n(t): all tuples conflicting with t. In a DeriveFrom-built graph the
  // returned row may be RAGGED — sized to the parent universe, with
  // zero-extension semantics beyond its size (see DeriveFrom). Combine it
  // only through the ragged-tolerant DynamicBitset operations, and never
  // assume its size() equals vertex_count().
  const DynamicBitset& Neighbors(int v) const { return *adjacency_[v]; }
  // v(t) = {t} ∪ n(t), always sized to vertex_count() (safe to store and
  // combine with same-universe sets even when the underlying row is
  // ragged).
  DynamicBitset Vicinity(int v) const;
  int Degree(int v) const { return adjacency_[v]->Count(); }
  bool HasEdge(int u, int v) const {
    // A ragged row shorter than the universe has no neighbors at or
    // beyond its size (zero-extension), so an out-of-row index is simply
    // a non-edge.
    return u != v && v < adjacency_[u]->size() && adjacency_[u]->Test(v);
  }

  // True iff vertex v's adjacency bitset is the same heap object in both
  // graphs (diagnostics and tests for DeriveFrom's structural sharing).
  bool SharesAdjacencyWith(const ConflictGraph& other, int v) const {
    return adjacency_[v] == other.adjacency_[v];
  }

  // Union of n(t) over all t in `s`.
  DynamicBitset NeighborsOfSet(const DynamicBitset& s) const;
  // Allocation-free form: overwrites `out` (same universe) with the union.
  void NeighborsOfSetInto(const DynamicBitset& s, DynamicBitset& out) const;

  // True iff no two elements of `s` are adjacent (i.e. `s` is consistent).
  bool IsIndependent(const DynamicBitset& s) const;
  // True iff `s` is independent and every vertex outside `s` has a
  // neighbor inside `s` (i.e. `s` is a repair).
  bool IsMaximalIndependent(const DynamicBitset& s) const;

  // The connected-component decomposition of this graph. Built on the
  // first call (thread-safe: concurrent first calls build it once) unless
  // one was adopted; every later call, on this graph or any copy of it,
  // returns the same object, valid while some copy lives.
  const ComponentDecomposition& decomposition() const;

  // Installs `decomposition`, which must decompose this graph exactly as
  // the first decomposition() call would (Snapshot::Derive's seeded one).
  // CHECK-fails when the graph already has one.
  void AdoptDecomposition(
      std::unique_ptr<const ComponentDecomposition> decomposition);

 private:
  // Defined in graph/components.cc, where the decomposition is complete.
  struct DecompositionCache;
  static std::shared_ptr<DecompositionCache> NewDecompositionCache();

  // The whole graph as its own spanning component (InducedSubgraph of
  // every vertex): shared rows under a fresh cache, so a graph never holds
  // itself through its decomposition.
  friend ConflictGraph InducedSubgraph(const ConflictGraph& graph,
                                       const std::vector<int>& vertices);

  static std::vector<std::shared_ptr<const DynamicBitset>> BuildAdjacency(
      int vertex_count, const std::vector<std::pair<int, int>>& edges);

  int vertex_count_ = 0;
  // Both the edge list and the per-vertex bitsets are immutable after
  // construction and shared with copies (a graph copy is refcount bumps —
  // the decomposition carries per-component local graphs by copy).
  std::shared_ptr<const std::vector<std::pair<int, int>>> edges_;
  std::vector<std::shared_ptr<const DynamicBitset>> adjacency_;
  // Shared with copies, like the adjacency it is computed from.
  std::shared_ptr<DecompositionCache> decomposition_ = NewDecompositionCache();
};

}  // namespace prefrep

#endif  // PREFREP_GRAPH_CONFLICT_GRAPH_H_
