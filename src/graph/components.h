// Connected-component decomposition of a conflict graph.
//
// Conflicts and priorities both live on conflict edges, so every repair
// notion in the paper decomposes over connected components: a set is a
// (preferred) repair of the whole graph iff its restriction to each
// component is a (preferred) repair of that component (Staworko-Chomicki-
// Marcinkowski exploit the same structure). The one enumeration skeleton,
// EnumeratePreferredRepairs in core/families.h, therefore searches each
// component in its own compact universe — bitsets, memo keys and
// optimality certificates all shrink to component size — materializes
// the per-component lists under a byte budget (MaterializeComponentLists)
// and recombines them lazily with a cross-product odometer
// (ComponentProductEnumerator). The same product, cut into boxes
// (EnumerateSlices), is what the sharded CQA walk distributes across
// workers (ForEachPreferredRepair, cqa/cqa.h).

#ifndef PREFREP_GRAPH_COMPONENTS_H_
#define PREFREP_GRAPH_COMPONENTS_H_

#include <atomic>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/biguint.h"
#include "base/bitset.h"
#include "base/exec_context.h"
#include "base/thread_pool.h"
#include "graph/conflict_graph.h"

namespace prefrep {

// Default budget for materialized per-component family lists
// (core/families.cc, Rep included) when no ExecutionContext is attached;
// contexts carry their own limit in ExecutionLimits. Only a component
// whose own repair space is astronomical can exceed it; the enumerator
// then falls back to whole-graph streaming with O(depth) memory. The
// accounting itself lives in base/exec_context.h's ResourceArbiter
// (shared by every producer of one enumeration call; thread-safe so
// parallel per-component producers can share it — whether a charge
// overflows depends only on the grand total, not on thread interleaving,
// except transient peaks of producers that refund, where a parallel run
// can overflow where serial would squeak by; both outcomes are correct
// since overflow only selects the streaming fallback).
inline constexpr size_t kComponentListBudgetBytes =
    ExecutionLimits{}.component_list_budget_bytes;

// The compact subgraph induced by `vertices` (sorted ascending): local
// vertex i stands for global vertex vertices[i].
[[nodiscard]] ConflictGraph InducedSubgraph(const ConflictGraph& graph,
                                            const std::vector<int>& vertices);

// True iff the graph is one connected component spanning every vertex
// (and nonempty). The enumeration engines use this as a cheap pre-check:
// a spanning component needs no decomposition, no priority projection and
// no local/global remapping, keeping the fixed per-call overhead on small
// connected inputs (a few microseconds of end-to-end CQA) near zero.
[[nodiscard]] bool SpansOneComponent(const ConflictGraph& graph);

// One non-singleton connected component in its compact local universe.
struct GraphComponent {
  std::vector<int> vertices;  // global ids, ascending; local i <-> vertices[i]
  ConflictGraph graph;        // induced subgraph over local ids
};

class ComponentDecomposition;

// Seed for the incremental decomposition constructor: how a parent
// decomposition maps onto a derived graph. Built by Snapshot::Derive
// (server/snapshot.h) from the delta's id remap and fresh conflict edges.
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
class ComponentProductEnumerator {
 public:
  // `context`, when set, is polled at every odometer tick; an interrupt
  // stops enumeration (Enumerate* return false).
  ComponentProductEnumerator(const ComponentDecomposition& decomposition,
                             std::vector<std::vector<DynamicBitset>> choices,
                             ExecutionContext* context = nullptr);
  // Borrowing form for sharded consumers: several enumerators (one per
  // worker thread) walk disjoint slices of one read-only choice table.
  // `choices` must outlive the enumerator.
  ComponentProductEnumerator(
      const ComponentDecomposition& decomposition,
      const std::vector<std::vector<DynamicBitset>>* choices,
      ExecutionContext* context = nullptr);

  // Not copyable/movable: choices_ may point into owned_choices_, and the
  // defaulted operations would leave the copy aimed at the source's
  // buffer.
  ComponentProductEnumerator(const ComponentProductEnumerator&) = delete;
  ComponentProductEnumerator& operator=(const ComponentProductEnumerator&) =
      delete;

  // Visits every combination exactly once (order unspecified); returns true
  // iff enumeration ran to completion. An empty choice list for any
  // component makes the product empty (vacuously complete).
  bool Enumerate(const std::function<bool(const DynamicBitset&)>& callback);

  // A constraint on one digit of the product: component `digit`'s choice
  // index ranges over [begin, end) instead of its full list.
  struct DigitRange {
    int digit;
    size_t begin;
    size_t end;
  };

  // Enumerates the box of the product where each constrained component
  // ranges over its DigitRange and every unconstrained component over its
  // full list (`ranges` may name each digit at most once). Boxes that
  // partition the full box partition the product — this is how the
  // tier-2 walk (ForEachPreferredRepair, cqa/cqa.h) shards verdicts,
  // certain answers and aggregate ranges across workers. Any empty range
  // makes the box a vacuously complete empty slice.
  bool EnumerateSlices(const std::vector<DigitRange>& ranges,
                       const std::function<bool(const DynamicBitset&)>& callback);

  // Exact product size in BigUint arithmetic.
  [[nodiscard]] BigUint Count() const;

 private:
  const ComponentDecomposition& decomposition_;
  std::vector<std::vector<DynamicBitset>> owned_choices_;
  const std::vector<std::vector<DynamicBitset>>* choices_;
  ExecutionContext* context_;
};

// Fills lists[c] for every component by running `produce` — serially, or
// fanned out over a work-stealing pool when options.threads > 1 and there
// is more than one component. `produce(c, out, budget)` appends component
// c's choice list, charging the shared arbiter, and returns false on
// overflow or interrupt; it must be safe to run concurrently for distinct
// c (engines constructed inside a produce call are per-task and therefore
// confined to one thread). Pass `pool` to reuse a caller-owned ThreadPool
// (the CQA walk shares one pool between materialization and sharding);
// with nullptr a pool is created on demand.
//
// The arbiter's limit comes from options.context when set (its stats also
// record charges and completed components), else kComponentListBudgetBytes.
// Returns OK when every list materialized; kResourceExhausted when any
// component overflowed the byte budget (callers pick their streaming
// fallback); the context's kCancelled / kDeadlineExceeded / failure status
// when it was interrupted mid-materialization.
template <typename ProduceComponent>
[[nodiscard]] Status MaterializeComponentLists(
    const ComponentDecomposition& decomposition,
    const ParallelOptions& options, ProduceComponent&& produce,
    std::vector<std::vector<DynamicBitset>>* lists,
    ThreadPool* pool = nullptr) {
  const size_t count = decomposition.components().size();
  lists->assign(count, {});
  ExecutionContext* context = options.context;
  ResourceArbiter arbiter(
      context != nullptr ? context->limits().component_list_budget_bytes
                         : kComponentListBudgetBytes,
      context != nullptr ? &context->stats() : nullptr);
  const auto finish = [&](bool overflow) {
    if (context != nullptr && context->interrupted()) return context->status();
    if (overflow) {
      return Status::ResourceExhausted(
          "component list budget exhausted (" +
          std::to_string(arbiter.limit()) + " bytes)");
    }
    return Status::Ok();
  };
  int threads = EffectiveThreadCount(options, count);
  if (threads <= 1) {
    for (size_t c = 0; c < count; ++c) {
      if (context != nullptr && context->ShouldStop()) return finish(false);
      if (!produce(static_cast<int>(c), &(*lists)[c], &arbiter)) {
        return finish(true);
      }
      if (context != nullptr) context->stats().AddComponentsCompleted();
    }
    return finish(false);
  }
  std::atomic<bool> overflow{false};
  auto run = [&](ThreadPool& p) {
    return p.ParallelFor(
        count,
        [&](size_t c, int /*worker*/) {
          if (overflow.load(std::memory_order_relaxed)) return;
          if (!produce(static_cast<int>(c), &(*lists)[c], &arbiter)) {
            overflow.store(true, std::memory_order_relaxed);
          } else if (context != nullptr) {
            context->stats().AddComponentsCompleted();
          }
        },
        context);
  };
  Status pool_status = Status::Ok();
  if (pool != nullptr) {
    pool_status = run(*pool);
  } else {
    ThreadPool own_pool(threads);
    pool_status = run(own_pool);
  }
  if (!pool_status.ok()) return pool_status;
  return finish(overflow.load(std::memory_order_relaxed));
}

}  // namespace prefrep

#endif  // PREFREP_GRAPH_COMPONENTS_H_
