#include "core/families.h"

#include <algorithm>
#include <memory>
#include <new>
#include <optional>
#include <unordered_set>
#include <utility>

#include "base/failpoint.h"
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

// Streams the members of `family` on one component graph through `emit`
// (local universe). kGlobal is excluded — it cannot stream (the
// ≪-certificate needs the full component repair list); see
// MaterializeComponentFamily / the single-component path below.
template <typename Callback>
bool StreamComponentFamily(const ConflictGraph& graph,
                           const Priority& priority, RepairFamily family,
                           Callback&& emit,
                           ExecutionContext* context = nullptr) {
  switch (family) {
    case RepairFamily::kAll:
      return MisEngine(graph, context).Enumerate(emit);
    case RepairFamily::kLocal:
      return MisEngine(graph, context)
          .Enumerate([&](const DynamicBitset& repair) {
            if (!IsLocallyOptimal(graph, priority, repair)) return true;
            return emit(repair);
          });
    case RepairFamily::kSemiGlobal:
      return MisEngine(graph, context)
          .Enumerate([&](const DynamicBitset& repair) {
            if (!IsSemiGloballyOptimal(graph, priority, repair)) return true;
            return emit(repair);
          });
    case RepairFamily::kCommon:
      return CommonRepairEnumerator(graph, priority, context).Run(emit);
    case RepairFamily::kGlobal:
      break;
  }
  CHECK(false) << "kGlobal cannot stream";
  return false;
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
  if (repairs->empty()) return true;
  int n = (*repairs)[0].size();
  DynamicBitset scratch1(n);
  DynamicBitset scratch2(n);
  auto dominated = [&](const DynamicBitset& repair) {
    for (const DynamicBitset& other : *repairs) {
      if (&other == &repair) continue;
      if (IsPreferredOver(priority, repair, other, scratch1, scratch2)) {
        return true;
      }
    }
    return false;
  };
  // Certify every repair against the full list before erasing any of it,
  // then compact in place — the list may sit near the materialization
  // budget, so no second list is allocated.
  std::vector<char> keep(repairs->size());
  for (size_t i = 0; i < repairs->size(); ++i) {
    if (context != nullptr && context->ShouldStop()) return false;
    keep[i] = !dominated((*repairs)[i]);
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

// Streams `family` on one graph — the whole (connected) conflict graph or
// one component's compact subgraph — through `emit`. kGlobal materializes
// the graph's repair list first (the ≪-certificate needs it), falling back
// to the seed's O(1)-memory nested certificate if the list is over budget.
template <typename Emit>
bool EnumerateFamilyOnGraph(const ConflictGraph& graph,
                            const Priority& priority, RepairFamily family,
                            Emit&& emit, ExecutionContext* context = nullptr) {
  if (family != RepairFamily::kGlobal) {
    return StreamComponentFamily(graph, priority, family, emit, context);
  }
  std::vector<DynamicBitset> repairs;
  ResourceArbiter arbiter(
      context != nullptr ? context->limits().component_list_budget_bytes
                         : kComponentListBudgetBytes,
      context != nullptr ? &context->stats() : nullptr);
  if (MaterializeComponentFamily(graph, priority, family, &repairs, &arbiter,
                                 context)) {
    for (const DynamicBitset& repair : repairs) {
      if (context != nullptr && context->ShouldStop()) return false;
      if (!emit(repair)) return false;
    }
    return true;
  }
  if (context != nullptr && context->interrupted()) return false;
  // Release the partial list before the memory-free fallback — this is
  // the moment memory pressure is highest.
  repairs.clear();
  repairs.shrink_to_fit();
  return MisEngine(graph, context).Enumerate([&](const DynamicBitset& repair) {
    if (!IsGloballyOptimal(graph, priority, repair)) return true;
    return emit(repair);
  });
}

// Whole-graph streaming fallback (the seed's forms) for the pathological
// case where even per-component lists exceed the byte budget.
bool EnumerateWholeGraphFallback(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback,
    ExecutionContext* context = nullptr) {
  PREFREP_FAILPOINT("families.streaming_fallback");
  switch (family) {
    case RepairFamily::kAll:
    case RepairFamily::kLocal:
    case RepairFamily::kSemiGlobal:
    case RepairFamily::kCommon:
      return StreamComponentFamily(graph, priority, family, callback, context);
    case RepairFamily::kGlobal: {
      // Nested streaming ≪-witness search with both levels on MisEngine
      // directly: going through IsGloballyOptimal here would re-attempt
      // the (already failed) per-component materialization inside every
      // certificate. The outer engine's chosen-set scratch stays stable
      // while the inner engine runs, so `repair` needs no copy.
      int n = graph.vertex_count();
      DynamicBitset scratch1(n);
      DynamicBitset scratch2(n);
      MisEngine outer(graph, context);
      MisEngine inner(graph, context);
      return outer.Enumerate([&](const DynamicBitset& repair) {
        bool dominated = false;
        inner.Enumerate([&](const DynamicBitset& other) {
          if (other == repair) return true;
          if (IsPreferredOver(priority, repair, other, scratch1, scratch2)) {
            dominated = true;
            return false;
          }
          return true;
        });
        // An interrupted certificate proves nothing: stop before emitting
        // a repair the completed search might have rejected.
        if (context != nullptr && context->interrupted()) return false;
        if (dominated) return true;
        return callback(repair);
      });
    }
  }
  return true;
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

bool IsPreferredRepair(const ConflictGraph& graph, const Priority& priority,
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

// Every family notion decomposes over connected components: conflicts and
// priorities both live on conflict edges, so a set is a family member iff
// its restriction to each component is a family member of that component
// (for ≪-maximality: a witness differing in some component yields a
// component-local witness, and vice versa; for C-Rep: choice steps in
// distinct components commute, so Algorithm 1 runs factor per component).
// Each component is searched in its own compact universe — bitsets, memo
// keys and certificates all shrink to component size — and the product is
// streamed lazily so early-stop callbacks still short-circuit.
bool EnumeratePreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback) {
  return EnumeratePreferredRepairs(graph, priority, family, ParallelOptions{},
                                   callback);
}

bool EnumeratePreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const ParallelOptions& options,
    const std::function<bool(const DynamicBitset&)>& callback) {
  ExecutionContext* context = options.context;
  if (family == RepairFamily::kAll) {
    return EnumerateMaximalIndependentSets(graph, options, callback);
  }
  if (SpansOneComponent(graph)) {
    // Connected graph: no decomposition, no priority projection, no
    // remapping — enumerate in place. There is only one component, so
    // options.threads has nothing to fan out over.
    return EnumerateFamilyOnGraph(graph, priority, family, callback, context);
  }
  ComponentDecomposition decomposition(graph);
  const std::vector<GraphComponent>& components = decomposition.components();
  if (components.empty()) {
    // Only isolated vertices: the unique repair belongs to every family.
    return callback(decomposition.isolated());
  }
  std::vector<Priority> local_priorities =
      ProjectPriorities(decomposition, priority);
  if (components.size() == 1) {
    // One non-singleton component plus isolated vertices: enumerate the
    // component locally and scatter into the full universe.
    const GraphComponent& component = decomposition.components()[0];
    DynamicBitset scratch = decomposition.isolated();
    return EnumerateFamilyOnGraph(
        component.graph, local_priorities[0], family,
        [&](const DynamicBitset& local) {
          decomposition.Scatter(0, local, scratch);
          return callback(scratch);
        },
        context);
  }
  std::optional<bool> complete = TryEnumerateViaComponentProduct(
      decomposition, options,
      [&](int c, std::vector<DynamicBitset>* out, ResourceArbiter* arbiter) {
        return MaterializeComponentFamily(components[c].graph,
                                          local_priorities[c], family, out,
                                          arbiter, context);
      },
      callback);
  if (complete.has_value()) return *complete;
  if (context != nullptr && context->interrupted()) return false;
  return EnumerateWholeGraphFallback(graph, priority, family, callback,
                                     context);
}

Result<std::vector<DynamicBitset>> PreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options) try {
  EvalContextScope scope(options);
  ExecutionContext* context = scope.context();
  size_t limit = options.limits.max_repair_list;
  if (context != nullptr) {
    limit = std::min(limit, context->limits().max_repair_list);
  }
  std::vector<DynamicBitset> repairs;
  bool complete = EnumeratePreferredRepairs(
      graph, priority, family, options.Parallel(context),
      [&repairs, limit, context](const DynamicBitset& r) {
        if (repairs.size() >= limit) return false;
        repairs.push_back(r);
        if (context != nullptr) context->stats().AddRepairsExamined();
        return true;
      });
  if (!complete) {
    if (context != nullptr && context->interrupted()) {
      return context->StatusWithStats();
    }
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
    const ParallelOptions& options, ThreadPool* pool) {
  ComponentFamilyLists out{ComponentDecomposition(graph), {}, {}};
  const std::vector<GraphComponent>& components =
      out.decomposition.components();
  out.local_priorities = ProjectPriorities(out.decomposition, priority);
  ExecutionContext* context = options.context;
  Status materialized = MaterializeComponentLists(
      out.decomposition, options,
      [&](int c, std::vector<DynamicBitset>* list, ResourceArbiter* arbiter) {
        return MaterializeComponentFamily(components[c].graph,
                                          out.local_priorities[c], family,
                                          list, arbiter, context);
      },
      &out.choices, pool);
  // Both overflow and interrupt yield nullopt: the streaming/serial paths
  // the caller falls back to poll the context themselves, so an interrupt
  // still surfaces without re-running the materialization.
  if (!materialized.ok()) return std::nullopt;
  return out;
}

bool EnumeratePreferredRepairsStreaming(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback,
    ExecutionContext* context) {
  return EnumerateWholeGraphFallback(graph, priority, family, callback,
                                     context);
}

}  // namespace prefrep
