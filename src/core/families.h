// The four families of preferred repairs: L-Rep, S-Rep, G-Rep, C-Rep,
// plus the unrestricted Rep (no priorities given).
//
// PreferredRepairs / EnumeratePreferredRepairs select the subset of the
// repair space a family retains under a given priority; these drive the
// preferred-consistent-query-answer engines in src/cqa.

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

// Visits every repair of the family exactly once (order unspecified).
// The callback returns false to stop early; returns true iff enumeration
// completed. For kGlobal this runs the co-NP witness search per repair;
// for kCommon it explores the Algorithm 1 choice tree with memoization.
bool EnumeratePreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback);

// Same, with per-component family materialization fanned out across
// options.threads workers: each component is searched by its own engine
// instance on one thread (engines are single-threaded by design), the
// per-component lists merge in component order, and the product odometer
// streams combinations through `callback` on the calling thread — so the
// emitted sequence is identical to the serial form and options only
// change wall-clock. threads <= 1 takes the serial path unchanged. One
// caveat at the edge of the kComponentListBudgetBytes budget: parallel
// G-Rep materialization holds several unfiltered lists concurrently where
// serial holds one at a time, so a transient peak can trip the streaming
// fallback where serial squeaks by — the repair *set* is still identical,
// but the fallback's emission order differs from the product's.
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
// with the decomposition and projected priorities that define them. The
// input of sharded consumers: cqa.cc splits the product space across
// worker threads by slicing one component's list
// (ComponentProductEnumerator::EnumerateSlice).
struct ComponentFamilyLists {
  ComponentDecomposition decomposition;
  std::vector<Priority> local_priorities;
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

// Whole-graph streaming enumeration with O(search depth) memory: the
// forms EnumeratePreferredRepairs falls back to once per-component lists
// exceed the byte budget. For consumers that already know the budget is
// blown — re-running the doomed materialization would double the
// exponential core. Emission order differs from the product-based path
// (there is no product); the set of repairs is identical.
bool EnumeratePreferredRepairsStreaming(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const std::function<bool(const DynamicBitset&)>& callback,
    ExecutionContext* context = nullptr);

}  // namespace prefrep

#endif  // PREFREP_CORE_FAMILIES_H_
