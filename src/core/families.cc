#include "core/families.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "base/failpoint.h"
#include "base/thread_pool.h"
#include "core/optimality.h"
#include "graph/components.h"
#include "graph/mis.h"

namespace prefrep {

namespace {

// DFS over Algorithm 1 choice sequences on one (component-compact) graph.
// States are identified by the set of chosen tuples (the chosen set
// determines the remaining set), so each distinct partial output is
// expanded once. The walk is an explicit stack over pooled frames — the
// only per-node heap traffic is the memo insertion of a *new* state:
// revisit probes use transparent lookup against the shared chosen-set
// scratch, whose hash is maintained incrementally word-by-word.
class CommonRepairEnumerator {
 public:
  // `context`, when set, is polled at every choice-tree node; an interrupt
  // stops the walk (Run returns false).
  CommonRepairEnumerator(const ConflictGraph& graph, const Priority& priority,
                         ExecutionContext* context = nullptr)
      : graph_(graph),
        priority_(priority),
        context_(context),
        vertex_count_(graph.vertex_count()),
        chosen_(vertex_count_) {
    vicinity_.reserve(vertex_count_);
    for (int v = 0; v < vertex_count_; ++v) {
      vicinity_.push_back(graph.Vicinity(v));
    }
  }

  // Visits every distinct completed Algorithm 1 output exactly once; the
  // callback returns false to stop early. Returns true iff the walk ran to
  // completion. The bitset passed to the callback is scratch — copy to keep.
  template <typename Callback>
  bool Run(Callback&& callback) {
    chosen_.Clear();
    chosen_hash_ = 0;
    visited_.clear();
    visited_.insert(MemoKey{chosen_, chosen_hash_});
    Frame& root = FrameAt(0);
    root.remaining = DynamicBitset::AllSet(vertex_count_);
    root.entering = true;
    int depth = 0;
    while (depth >= 0) {
      if (context_ != nullptr && context_->ShouldStop()) return false;
      Frame& frame = *frames_[depth];
      if (frame.entering) {
        frame.entering = false;
        WinnowInto(priority_, frame.remaining, frame.winnow);
        if (frame.winnow.None()) {
          // ≻ is acyclic, so an empty winnow implies an empty remaining
          // set; `chosen` is a completed run of Algorithm 1.
          if (!callback(static_cast<const DynamicBitset&>(chosen_))) {
            return false;
          }
          --depth;
          continue;
        }
        frame.x = -1;
      }
      if (frame.x >= 0) FlipChosen(frame.x);  // retire the previous pick
      int x = frame.winnow.NextSetBit(frame.x + 1);
      if (x < 0) {
        --depth;
        continue;
      }
      frame.x = x;
      FlipChosen(x);
      // Probe the memo before descending: a state reached through a
      // different choice order is expanded only once.
      if (visited_.find(ChosenView{&chosen_, chosen_hash_}) !=
          visited_.end()) {
        continue;
      }
      visited_.insert(MemoKey{chosen_, chosen_hash_});
      Frame& child = FrameAt(depth + 1);
      child.remaining.AssignDifference(frame.remaining, vicinity_[x]);
      child.entering = true;
      ++depth;
    }
    return true;
  }

 private:
  struct Frame {
    DynamicBitset remaining;
    DynamicBitset winnow;
    int x = -1;
    bool entering = true;
  };

  struct MemoKey {
    DynamicBitset bits;
    uint64_t hash;
  };
  struct ChosenView {
    const DynamicBitset* bits;
    uint64_t hash;
  };
  struct MemoHash {
    using is_transparent = void;
    size_t operator()(const MemoKey& k) const {
      return static_cast<size_t>(k.hash);
    }
    size_t operator()(const ChosenView& v) const {
      return static_cast<size_t>(v.hash);
    }
  };
  struct MemoEq {
    using is_transparent = void;
    bool operator()(const MemoKey& a, const MemoKey& b) const {
      return a.bits == b.bits;
    }
    bool operator()(const ChosenView& v, const MemoKey& k) const {
      return *v.bits == k.bits;
    }
    bool operator()(const MemoKey& k, const ChosenView& v) const {
      return k.bits == *v.bits;
    }
  };

  // Toggles `x` in the chosen scratch, updating its hash from the one
  // changed word instead of rehashing the whole set.
  void FlipChosen(int x) {
    int word = x >> 6;
    uint64_t before = chosen_.Word(word);
    chosen_.Assign(x, !chosen_.Test(x));
    chosen_hash_ ^= DynamicBitset::WordHashMix(word, before) ^
                    DynamicBitset::WordHashMix(word, chosen_.Word(word));
  }

  Frame& FrameAt(int depth) {
    while (static_cast<int>(frames_.size()) <= depth) {
      auto frame = std::make_unique<Frame>();
      frame->remaining = DynamicBitset(vertex_count_);
      frame->winnow = DynamicBitset(vertex_count_);
      frames_.push_back(std::move(frame));
    }
    return *frames_[depth];
  }

  const ConflictGraph& graph_;
  const Priority& priority_;
  ExecutionContext* context_;
  int vertex_count_;
  DynamicBitset chosen_;
  uint64_t chosen_hash_ = 0;
  std::vector<DynamicBitset> vicinity_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::unordered_set<MemoKey, MemoHash, MemoEq> visited_;
};

// The four X-repair checks (§3), each against a priority already known to
// be over `graph` (IsPreferredRepair checks it); each expects `repair` to
// satisfy graph.IsMaximalIndependent().

// L: no x ∈ r' and y ∈ r \ r' with y ≻ x and (r' \ {x}) ∪ {y} consistent.
// PTIME (Theorem 4).
bool IsLocallyOptimal(const ConflictGraph& graph, const Priority& priority,
                      const DynamicBitset& repair) {
  DCHECK(graph.IsMaximalIndependent(repair));
  int n = graph.vertex_count();
  DynamicBitset inside(n);
  for (int y = 0; y < n; ++y) {
    if (repair.Test(y)) continue;
    // (r' \ {x}) ∪ {y} is consistent iff y's only neighbor inside r' is x.
    inside.AssignAnd(graph.Neighbors(y), repair);
    int x = inside.FirstSetBit();
    if (x < 0) continue;  // cannot happen for maximal repairs
    if (inside.NextSetBit(x + 1) >= 0) continue;  // more than one neighbor
    if (priority.Dominates(y, x)) return false;
  }
  return true;
}

// S: no nonempty X ⊆ r' and y with ∀x∈X. y ≻ x and (r' \ X) ∪ {y}
// consistent. Equivalently: no y outside r' dominating all its neighbors
// in r' (§4.2). PTIME (Corollary 1).
bool IsSemiGloballyOptimal(const ConflictGraph& graph,
                           const Priority& priority,
                           const DynamicBitset& repair) {
  DCHECK(graph.IsMaximalIndependent(repair));
  int n = graph.vertex_count();
  DynamicBitset inside(n);
  for (int y = 0; y < n; ++y) {
    if (repair.Test(y)) continue;
    // X must equal n(y) ∩ r' (smaller X leaves a conflict with y; larger X
    // adds tuples y does not conflict with, which y cannot dominate).
    inside.AssignAnd(graph.Neighbors(y), repair);
    if (inside.None()) continue;
    if (inside.IsSubsetOf(priority.DominatedBy(y))) return false;
  }
  return true;
}

// G via Prop. 5: no repair r'' != r' with r' ≪ r''. A witness narrows to
// one conflict component: take it on one component where it differs from
// `repair` and `repair` elsewhere. Every tuple dropped lies in that
// component, and its dominator there (arcs never cross components) is
// kept. So each component's repairs are searched by a MisEngine under its
// projected priority, never the product of them: exponential in the
// largest component, not in the whole repair space (co-NP-complete in
// general, Theorem 5).
bool IsGloballyOptimal(const ConflictGraph& graph, const Priority& priority,
                       const DynamicBitset& repair) {
  DCHECK(graph.IsMaximalIndependent(repair));
  const ComponentDecomposition& decomposition = graph.decomposition();
  std::vector<Priority> local = ProjectPriorities(decomposition, priority);
  for (size_t c = 0; c < local.size(); ++c) {
    const ConflictGraph& component = decomposition.components()[c].graph;
    DynamicBitset mine(component.vertex_count());
    decomposition.Gather(static_cast<int>(c), repair, mine);
    DynamicBitset scratch1(component.vertex_count());
    DynamicBitset scratch2(component.vertex_count());
    bool found_witness = false;
    MisEngine(component).Enumerate([&](const DynamicBitset& other) {
      found_witness = other != mine && IsPreferredOver(local[c], mine, other,
                                                       scratch1, scratch2);
      return !found_witness;
    });
    if (found_witness) return false;
  }
  return true;
}

// C via Prop. 7: simulates Algorithm 1 restricting the choices in Step 3
// to ω≻(r) ∩ r'. PTIME (Corollary 2).
bool IsCommonRepair(const ConflictGraph& graph, const Priority& priority,
                    const DynamicBitset& repair) {
  DCHECK(graph.IsMaximalIndependent(repair));
  int n = graph.vertex_count();
  DynamicBitset remaining = DynamicBitset::AllSet(n);
  DynamicBitset to_pick = repair;
  DynamicBitset winnow(n);
  DynamicBitset picks(n);
  DynamicBitset neighbors(n);
  while (true) {
    WinnowInto(priority, remaining, winnow);
    picks.AssignAnd(winnow, to_pick);
    if (picks.None()) break;
    // Picking any x ∈ ω≻(r) ∩ r' keeps every other such candidate valid
    // (members of r' are pairwise non-conflicting and removals only shrink
    // domination), so all candidates can be consumed in one batch.
    to_pick.Subtract(picks);
    remaining.Subtract(picks);
    graph.NeighborsOfSetInto(picks, neighbors);
    remaining.Subtract(neighbors);
  }
  return remaining.None();
}

// X-repair checking against a priority already known to be over `graph`.
bool IsMember(const ConflictGraph& graph, const Priority& priority,
              RepairFamily family, const DynamicBitset& repair) {
  switch (family) {
    case RepairFamily::kAll:
      return graph.IsMaximalIndependent(repair);
    case RepairFamily::kLocal:
      return IsLocallyOptimal(graph, priority, repair);
    case RepairFamily::kSemiGlobal:
      return IsSemiGloballyOptimal(graph, priority, repair);
    case RepairFamily::kGlobal:
      return IsGloballyOptimal(graph, priority, repair);
    case RepairFamily::kCommon:
      return IsCommonRepair(graph, priority, repair);
  }
  return false;
}

// Streams the members of `family` on one graph through `emit` with
// O(search depth) memory. kGlobal certifies each repair by a nested
// ≪-witness search with both levels on MisEngine and `context`, so the
// certificate is governed like the outer loop; the outer engine's
// chosen-set scratch stays stable while the inner engine runs, so
// `repair` needs no copy.
template <typename Callback>
bool StreamComponentFamily(const ConflictGraph& graph,
                           const Priority& priority, RepairFamily family,
                           Callback&& emit, ExecutionContext* context) {
  switch (family) {
    case RepairFamily::kAll:
      return MisEngine(graph, context).Enumerate(emit);
    case RepairFamily::kLocal:
    case RepairFamily::kSemiGlobal:
      return MisEngine(graph, context)
          .Enumerate([&](const DynamicBitset& repair) {
            return !IsMember(graph, priority, family, repair) ||
                   emit(repair);
          });
    case RepairFamily::kCommon:
      return CommonRepairEnumerator(graph, priority, context).Run(emit);
    case RepairFamily::kGlobal:
      break;
  }
  DynamicBitset scratch1(graph.vertex_count());
  DynamicBitset scratch2(graph.vertex_count());
  MisEngine outer(graph, context);
  MisEngine inner(graph, context);
  return outer.Enumerate([&](const DynamicBitset& repair) {
    bool dominated = false;
    inner.Enumerate([&](const DynamicBitset& other) {
      dominated = other != repair &&
                  IsPreferredOver(priority, repair, other, scratch1, scratch2);
      return !dominated;
    });
    // An interrupted certificate proves nothing: stop before emitting a
    // repair the completed search might have rejected.
    if (context != nullptr && context->interrupted()) return false;
    return dominated || emit(repair);
  });
}

// Erases the repairs that are not ≪-maximal among `repairs` (which must be
// the component's *complete* repair list). Certification is quadratic in
// the component list — exponentially smaller than the whole-graph list the
// pre-decomposition engine certified against. `context` is polled once per
// certified repair; on interrupt the filter stops and returns false
// (repairs is then partially filtered and meaningless).
bool FilterGloballyOptimalInPlace(const Priority& priority,
                                  std::vector<DynamicBitset>* repairs,
                                  ExecutionContext* context = nullptr) {
  // Certify every repair against the full list before erasing any of it,
  // then compact in place — the list may sit near the materialization
  // budget, so no second list is allocated.
  std::vector<char> keep(repairs->size());
  for (size_t i = 0; i < repairs->size(); ++i) {
    if (context != nullptr && context->ShouldStop()) return false;
    keep[i] = IsGloballyOptimalAmong(priority, (*repairs)[i], *repairs);
  }
  size_t write = 0;
  for (size_t i = 0; i < repairs->size(); ++i) {
    if (keep[i]) {
      if (write != i) (*repairs)[write] = std::move((*repairs)[i]);
      ++write;
    }
  }
  repairs->resize(write);
  return true;
}

// Materializes the members of `family` on one component graph into `out`,
// charging the shared arbiter. Returns false if the budget would be
// exceeded or the context was interrupted (out is then meaningless). Safe
// to run concurrently for distinct components: every engine it constructs
// is local to the call.
bool MaterializeComponentFamily(const ConflictGraph& graph,
                                const Priority& priority, RepairFamily family,
                                std::vector<DynamicBitset>* out,
                                ResourceArbiter* arbiter,
                                ExecutionContext* context = nullptr) {
  PREFREP_FAILPOINT("families.materialize");
  const size_t per_set_bytes =
      DynamicBitset(graph.vertex_count()).MemoryBytes();
  auto collect = [&](const DynamicBitset& repair) {
    if (!arbiter->TryCharge(per_set_bytes)) return false;
    out->push_back(repair);
    return true;
  };
  if (family == RepairFamily::kGlobal) {
    // Collect the complete component repair list first; the ≪-maximality
    // certificate compares a repair only against other repairs of the same
    // component (priorities never cross components).
    if (!MisEngine(graph, context).Enumerate(collect)) return false;
    size_t before = out->size();
    if (!FilterGloballyOptimalInPlace(priority, out, context)) return false;
    arbiter->Refund((before - out->size()) * per_set_bytes);
    return true;
  }
  return StreamComponentFamily(graph, priority, family, collect, context);
}

// The byte budget of one enumeration call's materialized lists, read
// through the one accessor; an attached context's stats record the
// charges.
ResourceArbiter ListArbiter(const EvalOptions& options) {
  return ResourceArbiter(
      options.EffectiveLimits().component_list_budget_bytes,
      options.context != nullptr ? &options.context->stats() : nullptr);
}

// Whole-graph streaming with O(search depth) memory: the walk on a
// connected graph or a single component, and its one fallback past the
// byte budget, which does not re-run the materialization that failed (the
// Debug failpoint marks every whole-graph stream). Emission order differs
// from the product path; the set is equal.
template <typename Callback>
bool StreamWholeGraph(const ConflictGraph& graph, const Priority& priority,
                      RepairFamily family, Callback&& callback,
                      ExecutionContext* context) {
  PREFREP_FAILPOINT("families.streaming_fallback");
  return StreamComponentFamily(graph, priority, family, callback, context);
}

// Enumerates `family` on one graph — the whole (connected) conflict graph
// or one component's compact subgraph — through `emit`. kGlobal first
// materializes the graph's repair list and certifies against it; every
// other family, and kGlobal past the byte budget, streams.
template <typename Emit>
bool EnumerateFamilyOnGraph(const ConflictGraph& graph,
                            const Priority& priority, RepairFamily family,
                            Emit&& emit, const EvalOptions& options) {
  ExecutionContext* context = options.context;
  if (family == RepairFamily::kGlobal) {
    std::vector<DynamicBitset> repairs;
    ResourceArbiter arbiter = ListArbiter(options);
    if (MaterializeComponentFamily(graph, priority, family, &repairs,
                                   &arbiter, context)) {
      for (const DynamicBitset& repair : repairs) {
        if (context != nullptr && context->ShouldStop()) return false;
        if (!emit(repair)) return false;
      }
      return true;
    }
    if (context != nullptr && context->interrupted()) return false;
    // Leaving the block releases the partial list before streaming — the
    // moment memory pressure is highest.
  }
  return StreamWholeGraph(graph, priority, family, emit, context);
}

// Rep reads no priority, so kAll skips the projection (its priority may be
// default-constructed) and its components get empty placeholders.
std::vector<Priority> LocalPriorities(
    const ComponentDecomposition& decomposition, const Priority& priority,
    RepairFamily family) {
  if (family == RepairFamily::kAll) {
    return std::vector<Priority>(decomposition.components().size());
  }
  return ProjectPriorities(decomposition, priority);
}

// Materializes every component's family list into `lists` under one byte
// budget: serially, or one task per component on `pool` when given. Every
// engine a task constructs is local to it, so tasks run concurrently.
// Returns OK when every list materialized; kResourceExhausted when a
// component overflowed the budget (the caller streams instead); the
// context's status when it was interrupted; the pool's status when a
// task threw.
Status MaterializeLists(const ComponentDecomposition& decomposition,
                        const std::vector<Priority>& priorities,
                        RepairFamily family, const EvalOptions& options,
                        ThreadPool* pool,
                        std::vector<std::vector<DynamicBitset>>* lists) {
  ExecutionContext* context = options.context;
  const size_t count = decomposition.components().size();
  lists->assign(count, {});
  ResourceArbiter arbiter = ListArbiter(options);
  std::atomic<bool> overflow{false};
  const auto produce = [&](size_t c) {
    if (overflow.load(std::memory_order_relaxed)) return;
    if (!MaterializeComponentFamily(decomposition.components()[c].graph,
                                    priorities[c], family, &(*lists)[c],
                                    &arbiter, context)) {
      overflow.store(true, std::memory_order_relaxed);
    } else if (context != nullptr) {
      context->stats().AddComponentsCompleted();
    }
  };
  if (pool != nullptr) {
    PREFREP_RETURN_IF_ERROR(pool->ParallelFor(
        count, [&](size_t c, int /*worker*/) { produce(c); }, context));
  } else {
    for (size_t c = 0; c < count; ++c) {
      if (context != nullptr && context->ShouldStop()) break;
      produce(c);
    }
  }
  if (context != nullptr && context->interrupted()) return context->status();
  if (overflow.load(std::memory_order_relaxed)) {
    return Status::ResourceExhausted("component list budget exhausted (" +
                                     std::to_string(arbiter.limit()) +
                                     " bytes)");
  }
  return Status::Ok();
}

using ShardBox = std::vector<ComponentProductEnumerator::DigitRange>;

// Partitions the product space of per-component family lists into
// ~workers*4 disjoint boxes (ComponentProductEnumerator::EnumerateSlices
// tasks), a few per worker so the work-stealing pool can rebalance
// uneven boxes. One component's list rarely has enough entries on its
// own (multi-component instances often have many small lists but an
// astronomical product), so the planner works through the components by
// descending list length: it fixes whole digits — taking the cross
// product of their individual indices into the box set — while that
// keeps the box count at or under the target, then splits the next
// digit's range to make up the remainder. Box count stays under 2x the
// target.
std::vector<ShardBox> PlanShards(
    const std::vector<std::vector<DynamicBitset>>& choices, int workers) {
  const size_t target = static_cast<size_t>(workers) * size_t{4};
  std::vector<int> order(choices.size());
  for (size_t c = 0; c < order.size(); ++c) order[c] = static_cast<int>(c);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return choices[a].size() > choices[b].size();
  });
  std::vector<ShardBox> boxes(1);  // one box covering the whole product
  size_t count = 1;
  for (int digit : order) {
    const size_t length = choices[digit].size();
    if (count >= target || length <= 1) break;  // nothing more to gain
    // Fix this digit (one box per index) while that stays under the
    // target; otherwise split its range just enough to reach it.
    const size_t splits = count * length <= target
                              ? length
                              : std::min(length, (target + count - 1) / count);
    std::vector<ShardBox> expanded;
    expanded.reserve(boxes.size() * splits);
    for (const ShardBox& box : boxes) {
      for (size_t s = 0; s < splits; ++s) {
        expanded.push_back(box);
        expanded.back().push_back(
            {digit, length * s / splits, length * (s + 1) / splits});
      }
    }
    count *= splits;
    boxes = std::move(expanded);
  }
  return boxes;
}

// The one walk over the family's component product, with `workers`
// walkers. A set is a family member iff its restriction to each conflict
// component is one there (for ≪-maximality a witness narrows to one
// component; for C-Rep, Algorithm 1 choices in distinct components
// commute). So the walk streams a connected graph or a single component
// in place with early stop on the calling thread; otherwise it
// materializes each component's list in its compact universe under the
// byte budget (on one pool when options.threads > 1), streams the whole
// graph past the budget, and walks the product: one box in odometer order
// on the calling thread for one walker, PlanShards boxes on the pool
// otherwise. `options` carry the resolved context. Returns OK, the
// context's latched status after an interrupt, or the pool's status after
// a worker throw.
Status WalkPreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options, int workers,
    const std::function<bool(int worker, const DynamicBitset& repair)>&
        visit) {
  ExecutionContext* context = options.context;
  // An interrupt truncates the walk silently (the engines just stop);
  // surface it so no caller mistakes a partial fold for a result.
  const auto finish = [context](Status status) {
    if (context != nullptr && context->interrupted()) {
      return context->StatusWithStats();
    }
    return status;
  };
  const auto on_caller = [&visit](const DynamicBitset& repair) {
    return visit(0, repair);
  };
  const ComponentDecomposition& decomposition = graph.decomposition();
  const std::vector<GraphComponent>& components = decomposition.components();
  if (components.empty()) {
    visit(0, decomposition.isolated());
    return finish(Status::Ok());
  }
  if (components.size() == 1 && decomposition.isolated().None()) {
    // One component spans the graph: no projection, no remapping.
    EnumerateFamilyOnGraph(graph, priority, family, on_caller, options);
    return finish(Status::Ok());
  }
  const std::vector<Priority> priorities =
      LocalPriorities(decomposition, priority, family);
  if (components.size() == 1) {
    DynamicBitset scratch = decomposition.isolated();
    EnumerateFamilyOnGraph(
        components[0].graph, priorities[0], family,
        [&](const DynamicBitset& local) {
          decomposition.Scatter(0, local, scratch);
          return visit(0, scratch);
        },
        options);
    return finish(Status::Ok());
  }
  // The pool serves materialization (sized to the component count when
  // it is all the pool does) and, for several walkers, the boxes.
  const int threads =
      std::max(workers,
               EffectiveThreadCount(options.threads, components.size()));
  std::unique_ptr<ThreadPool> pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  std::vector<std::vector<DynamicBitset>> lists;
  Status materialized = MaterializeLists(decomposition, priorities, family,
                                         options, pool.get(), &lists);
  if (materialized.code() == StatusCode::kResourceExhausted) {
    lists = {};  // free before the fallback, when memory pressure peaks
    if (context == nullptr || !context->interrupted()) {
      StreamWholeGraph(graph, priority, family, on_caller, context);
    }
    return finish(Status::Ok());
  }
  if (!materialized.ok()) return finish(materialized);
  if (workers <= 1) {
    ComponentProductEnumerator(decomposition, &lists, context)
        .EnumerateSlices({}, on_caller);
    return finish(Status::Ok());
  }
  const std::vector<ShardBox> boxes = PlanShards(lists, workers);
  std::atomic<bool> stop{false};
  return finish(pool->ParallelFor(
      boxes.size(),
      [&](size_t box, int worker) {
        if (stop.load(std::memory_order_relaxed)) return;
        ComponentProductEnumerator(decomposition, &lists, context)
            .EnumerateSlices(boxes[box], [&](const DynamicBitset& repair) {
              if (!visit(worker, repair)) {
                stop.store(true, std::memory_order_relaxed);
                return false;
              }
              return !stop.load(std::memory_order_relaxed);
            });
      },
      context));
}

// The priority the engines read for `family` on `graph`. Rep reads none.
// Otherwise a priority without arcs means "no preferences" and is read as
// Priority::Empty(graph) (kept in *empty); one with arcs must have been
// built over `graph`, since the engines index it by vertex.
Result<const Priority*> PriorityOnGraph(const ConflictGraph& graph,
                                        const Priority& priority,
                                        RepairFamily family,
                                        std::optional<Priority>* empty) {
  if (family == RepairFamily::kAll) return &priority;
  bool on_graph = priority.vertex_count() == graph.vertex_count();
  if (priority.arc_count() == 0) {
    return on_graph ? &priority : &empty->emplace(Priority::Empty(graph));
  }
  for (const auto& [x, y] : priority.arcs()) {
    if (!on_graph) break;
    on_graph = graph.HasEdge(x, y);
  }
  if (!on_graph) {
    return Status::InvalidArgument(
        "priority over " + std::to_string(priority.vertex_count()) +
        " tuples was not built over this conflict graph (" +
        std::to_string(graph.vertex_count()) + " tuples)");
  }
  return &priority;
}

}  // namespace

std::string_view RepairFamilyName(RepairFamily family) {
  switch (family) {
    case RepairFamily::kAll:
      return "Rep";
    case RepairFamily::kLocal:
      return "L-Rep";
    case RepairFamily::kSemiGlobal:
      return "S-Rep";
    case RepairFamily::kGlobal:
      return "G-Rep";
    case RepairFamily::kCommon:
      return "C-Rep";
  }
  return "?";
}

RepairFamily EffectiveFamily(const Priority& priority, RepairFamily family) {
  return PriorityIsEmpty(priority) ? RepairFamily::kAll : family;
}

Result<bool> IsPreferredRepair(const ConflictGraph& graph,
                               const Priority& priority, RepairFamily family,
                               const DynamicBitset& repair) {
  std::optional<Priority> empty;
  PREFREP_ASSIGN_OR_RETURN(const Priority* checked,
                           PriorityOnGraph(graph, priority, family, &empty));
  return IsMember(graph, *checked, family, repair);
}

Status ForEachPreferredRepair(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options,
    const std::function<bool(int worker, const DynamicBitset& repair)>&
        visit) {
  std::optional<Priority> empty;
  PREFREP_ASSIGN_OR_RETURN(const Priority* checked,
                           PriorityOnGraph(graph, priority, family, &empty));
  EvalContextScope scope(options);
  ExecutionContext* context = scope.context();
  return WalkPreferredRepairs(
      graph, *checked, family, scope.options(), options.threads,
      [&](int worker, const DynamicBitset& repair) {
        PREFREP_FAILPOINT("cqa.eval");
        if (context != nullptr) context->stats().AddRepairsExamined();
        return visit(worker, repair);
      });
}

Result<std::vector<DynamicBitset>> PreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options) try {
  std::optional<Priority> empty;
  PREFREP_ASSIGN_OR_RETURN(const Priority* checked,
                           PriorityOnGraph(graph, priority, family, &empty));
  EvalContextScope scope(options);
  ExecutionContext* context = scope.context();
  const size_t limit = scope.options().EffectiveLimits().max_repair_list;
  std::vector<DynamicBitset> repairs;
  bool complete = true;
  PREFREP_RETURN_IF_ERROR(WalkPreferredRepairs(
      graph, *checked, family, scope.options(), /*workers=*/1,
      [&](int /*worker*/, const DynamicBitset& repair) {
        complete = repairs.size() < limit;
        if (!complete) return false;
        repairs.push_back(repair);
        if (context != nullptr) context->stats().AddRepairsExamined();
        return true;
      }));
  if (!complete) {
    return Status::ResourceExhausted("more than " + std::to_string(limit) +
                                     " preferred repairs in family " +
                                     std::string(RepairFamilyName(family)));
  }
  return repairs;
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted("allocation failed materializing family " +
                                   std::string(RepairFamilyName(family)));
}

std::optional<ComponentFamilyLists> MaterializeComponentFamilyLists(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options) {
  std::optional<Priority> empty;
  Result<const Priority*> checked =
      PriorityOnGraph(graph, priority, family, &empty);
  if (!checked.ok()) return std::nullopt;
  EvalContextScope scope(options);
  const ComponentDecomposition& decomposition = graph.decomposition();
  const int threads = EffectiveThreadCount(options.threads,
                                           decomposition.components().size());
  std::unique_ptr<ThreadPool> pool =
      threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  ComponentFamilyLists out;
  Status materialized = MaterializeLists(
      decomposition, LocalPriorities(decomposition, **checked, family), family,
      scope.options(), pool.get(), &out.choices);
  if (!materialized.ok()) return std::nullopt;
  return out;
}

}  // namespace prefrep
