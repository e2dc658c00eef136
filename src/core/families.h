// The four families of preferred repairs: L-Rep, S-Rep, G-Rep, C-Rep,
// plus the unrestricted Rep (no priorities given).
//
// PreferredRepairs / EnumeratePreferredRepairs select the subset of the
// repair space a family retains under a given priority; these drive the
// preferred-consistent-query-answer engines in src/cqa. Rep is the
// kAll family on the same path — every repair enumeration in the library
// (RepairProblem's, IsGloballyOptimal's) goes through it.

#ifndef PREFREP_CORE_FAMILIES_H_
#define PREFREP_CORE_FAMILIES_H_

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "base/bitset.h"
#include "base/eval_options.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "graph/components.h"
#include "graph/conflict_graph.h"
#include "priority/priority.h"

namespace prefrep {

enum class RepairFamily {
  kAll,         // Rep: every repair (Arenas-Bertossi-Chomicki baseline)
  kLocal,       // L-Rep: locally optimal repairs
  kSemiGlobal,  // S-Rep: semi-globally optimal repairs
  kGlobal,      // G-Rep: globally optimal repairs
  kCommon,      // C-Rep: common repairs (all Algorithm 1 outputs)
};

// "Rep", "L-Rep", "S-Rep", "G-Rep", "C-Rep".
std::string_view RepairFamilyName(RepairFamily family);

// All five families, in the paper's order (handy for sweeps).
inline constexpr RepairFamily kAllFamilies[] = {
    RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kSemiGlobal,
    RepairFamily::kGlobal, RepairFamily::kCommon};

// True iff `priority` resolves no conflict at all (no arcs). Under an
// empty priority nothing is ever dominated, so the non-discrimination
// property P3 (§3, pinned by tests/properties_test.cc) collapses every
// family to plain Rep: L/S/G-optimality hold vacuously and every repair
// is an Algorithm 1 output.
inline bool PriorityIsEmpty(const Priority& priority) {
  return priority.arc_count() == 0;
}

// The family actually in force: `family` itself, except that an empty
// priority collapses every family to RepairFamily::kAll (see
// PriorityIsEmpty). The CQA planner normalizes through this before
// choosing an algorithm — it both unlocks the polynomial Rep-only fast
// paths for all five families and lets the enumeration tier skip the
// per-repair optimality filters (G-Rep's quadratic certificate, C-Rep's
// memoized choice-tree walk) when they cannot reject anything.
RepairFamily EffectiveFamily(const Priority& priority, RepairFamily family);

// X-repair checking (problem (i) of §4.1): is `repair` — assumed to be a
// repair — a member of family X under `priority`?
bool IsPreferredRepair(const ConflictGraph& graph, const Priority& priority,
                       RepairFamily family, const DynamicBitset& repair);

// Visits every repair of the family exactly once (order unspecified): the
// library's one enumeration skeleton, Rep included. The callback returns
// false to stop early; returns true iff enumeration completed. Each
// component's family list is materialized in its compact universe under
// the byte budget, one engine per component on options.threads workers,
// and the lists' product streams through `callback` on the calling
// thread — the emitted sequence is identical at every thread count.
// Connected graphs, single components and lists over the budget stream
// instead (EnumeratePreferredRepairsStreaming). Caveat at the edge of the
// budget: parallel G-Rep materialization holds several unfiltered lists
// at once, so a transient peak can trip the streaming fallback where
// serial squeaks by — same repair *set*, different order.
//
// Rep (kAll) reads no priority: a default-constructed Priority is valid
// for it.
bool EnumeratePreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const ParallelOptions& options,
    const std::function<bool(const DynamicBitset&)>& callback);

// Materializes the family. Threads, deadline and the list cap all come
// from `options`; the cap is options.limits.max_repair_list (clamped to
// options.context's max_repair_list when an external context is
// attached). Past the cap it fails with kResourceExhausted; an
// interrupted context fails with its kCancelled / kDeadlineExceeded
// status instead.
Result<std::vector<DynamicBitset>> PreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options = {});

// Per-component family lists in their compact local universes, together
// with the decomposition that defines them. The input of sharded
// consumers: ForEachPreferredRepair (cqa/cqa.h) splits the product space
// into disjoint boxes, each fixing or narrowing the index ranges of
// several components' lists (ComponentProductEnumerator::EnumerateSlices),
// and walks the boxes on worker threads.
struct ComponentFamilyLists {
  ComponentDecomposition decomposition;
  std::vector<std::vector<DynamicBitset>> choices;
};

// Materializes every component's family list, fanning components out
// across options.threads workers (on `pool` when given, else an
// on-demand pool). Returns nullopt when the lists exceed the byte budget
// (options.context's limit, else kComponentListBudgetBytes) — callers
// then take a serial streaming path
// (EnumeratePreferredRepairsStreaming, which will not re-attempt the
// materialization that just failed) — or when the context was interrupted
// (the fallback path re-polls the context and surfaces the interrupt). A
// graph with no non-singleton component yields empty `choices`; its
// unique repair is decomposition.isolated().
[[nodiscard]] std::optional<ComponentFamilyLists>
MaterializeComponentFamilyLists(const ConflictGraph& graph,
                                const Priority& priority, RepairFamily family,
                                const ParallelOptions& options,
                                ThreadPool* pool = nullptr);

// Whole-graph streaming enumeration with O(search depth) memory: how
// EnumeratePreferredRepairs runs on a connected graph or a single
// component, and what it falls back to once per-component lists exceed
// the byte budget (its Debug failpoint marks every whole-graph stream).
// kGlobal certifies each repair by a nested, context-governed ≪-witness
// search. For consumers that already know the budget is blown —
// re-running the doomed materialization would double the exponential
// core. Emission order differs from the product path; the set is equal.
bool EnumeratePreferredRepairsStreaming(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback,
    ExecutionContext* context = nullptr);

}  // namespace prefrep

#endif  // PREFREP_CORE_FAMILIES_H_
