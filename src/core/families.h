// The four families of preferred repairs: L-Rep, S-Rep, G-Rep, C-Rep,
// plus the unrestricted Rep (no priorities given).
//
// Every family is a product of per-component choice lists, and this
// header owns the one walk over that product (core/families.cc).
// EnumeratePreferredRepairs walks it on the calling thread;
// ForEachPreferredRepair, which the tier-2 folds in src/cqa run over,
// shards it across options.threads workers. Rep is the kAll family on
// the same walk, so every repair enumeration in the library goes through
// it.

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

// Visits every repair of the family exactly once: the walk with one
// worker. The callback returns false to stop early; returns true iff
// enumeration completed. A connected graph or a single component streams
// in place. Otherwise each component's list is materialized in its
// compact universe under the byte budget, one engine per component on
// options.threads workers, and the product streams through `callback` in
// odometer order on the calling thread — the emitted sequence is
// identical at every thread count. Lists over the budget fall back to
// whole-graph streaming. Caveat at the edge of the budget: parallel G-Rep
// materialization holds several unfiltered lists at once, so a transient
// peak can trip the fallback where serial squeaks by — same repair *set*,
// different order.
//
// `priority` must be built over `graph` (the Status entry points below
// check it). Rep (kAll) reads no priority: a default-constructed Priority
// is valid for it.
bool EnumeratePreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const ParallelOptions& options,
    const std::function<bool(const DynamicBitset&)>& callback);

// The tier-2 walk: calls visit(worker, repair) once per repair of the
// family, with worker < max(1, options.threads) so callers size
// per-worker fold state up front; visit returning false stops every
// worker. The same walk as EnumeratePreferredRepairs with
// options.threads workers: the materialized product is cut into
// disjoint boxes walked concurrently; everything that streams runs on
// the calling thread as worker 0. Folds whose merge is commutative
// therefore give the serial result at every thread count. With a context
// attached, every visited repair counts in its repairs_examined.
//
// For every family but Rep, a priority with arcs built over another graph
// (other vertex count, or an arc on no conflict edge) is
// kInvalidArgument; one without arcs is read as Priority::Empty(graph).
// Otherwise returns OK when the walk completed or visit stopped it; the
// context's latched status when it was interrupted (the fold saw only a
// prefix and must be discarded); a worker throw as the pool's Status
// (bad_alloc -> kResourceExhausted). A throw on the calling thread
// propagates.
[[nodiscard]] Status ForEachPreferredRepair(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const ParallelOptions& options,
    const std::function<bool(int worker, const DynamicBitset& repair)>& visit);

// Materializes the family. Threads, deadline and the list cap all come
// from `options`; the cap is options.limits.max_repair_list (clamped to
// options.context's max_repair_list when an external context is
// attached). Past the cap it fails with kResourceExhausted; an
// interrupted context fails with its kCancelled / kDeadlineExceeded
// status instead. The priority is checked as in ForEachPreferredRepair.
Result<std::vector<DynamicBitset>> PreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options = {});

// Per-component family lists in their compact local universes, together
// with the decomposition that defines them: the factors of the product
// the walk above visits.
struct ComponentFamilyLists {
  ComponentDecomposition decomposition;
  std::vector<std::vector<DynamicBitset>> choices;
};

// Materializes every component's family list, fanning components out
// across options.threads workers. Returns nullopt when the lists exceed
// the byte budget (options.context's limit, else ExecutionLimits{}'s) or
// when the context was interrupted. A graph with no non-singleton
// component yields empty `choices`; its unique repair is
// decomposition.isolated().
[[nodiscard]] std::optional<ComponentFamilyLists>
MaterializeComponentFamilyLists(const ConflictGraph& graph,
                                const Priority& priority, RepairFamily family,
                                const ParallelOptions& options);

}  // namespace prefrep

#endif  // PREFREP_CORE_FAMILIES_H_
