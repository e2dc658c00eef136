// The four families of preferred repairs: L-Rep, S-Rep, G-Rep, C-Rep,
// plus the unrestricted Rep (no priorities given).
//
// Every family is a product of per-component choice lists, and this
// header owns the one walk over that product (core/families.cc) and its
// two entry points: ForEachPreferredRepair streams it (sharded across
// options.threads workers; the tier-2 folds in src/cqa run over it) and
// PreferredRepairs lists it in odometer order. Rep is the kAll family on
// the same walk, so every repair enumeration in the library goes through
// it and through its priority check.

#ifndef PREFREP_CORE_FAMILIES_H_
#define PREFREP_CORE_FAMILIES_H_

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "base/bitset.h"
#include "base/eval_options.h"
#include "base/status.h"
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

// X-repair checking (problem (i) of §4.1), the library's one public
// check: is `repair` — assumed to be a repair — a member of family X under
// `priority`? L- and S-Rep and C-Rep are PTIME (Theorem 4, Corollaries 1
// and 2); G-Rep searches each conflict component for a ≪-witness
// (co-NP-complete in general, Theorem 5). The priority is checked as in
// ForEachPreferredRepair (Rep reads none).
Result<bool> IsPreferredRepair(const ConflictGraph& graph,
                               const Priority& priority, RepairFamily family,
                               const DynamicBitset& repair);

// The walk: calls visit(worker, repair) once per repair of the family,
// with worker < max(1, options.threads) so callers size per-worker fold
// state up front; visit returning false stops every worker. A connected
// graph or a single component streams in place on the calling thread
// (worker 0). Otherwise each component of graph.decomposition() has its
// list materialized in its compact universe under the byte budget, one
// engine per component on options.threads workers; lists over the budget
// fall back to whole-graph streaming. The materialized product is walked
// in odometer order at threads <= 1, and cut into disjoint boxes walked
// concurrently otherwise, so folds whose merge is commutative give the
// serial result at every thread count; a caller that needs the order
// passes threads = 1 or takes PreferredRepairs. With a context attached,
// every visited repair counts in its repairs_examined.
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
    const EvalOptions& options,
    const std::function<bool(int worker, const DynamicBitset& repair)>& visit);

// Materializes the family in odometer order, the same sequence at every
// thread count (options.threads only fans out materialization). Past the
// effective max_repair_list it fails with kResourceExhausted; an
// interrupted context fails with its kCancelled / kDeadlineExceeded
// status instead. The priority is checked as in ForEachPreferredRepair.
// Caveat at the edge of the byte budget: parallel G-Rep materialization
// holds several unfiltered lists at once, so a transient peak can trip
// the streaming fallback where serial squeaks by — same repair *set*,
// different order.
Result<std::vector<DynamicBitset>> PreferredRepairs(
    const ConflictGraph& graph, const Priority& priority, RepairFamily family,
    const EvalOptions& options = {});

// Per-component family lists in their compact local universes: the
// factors of the product the walk above visits. choices[c] belongs to
// component c of graph.decomposition(), the graph's one decomposition.
struct ComponentFamilyLists {
  std::vector<std::vector<DynamicBitset>> choices;
};

// Materializes every component's family list, fanning components out
// across options.threads workers. Returns nullopt when the priority fails
// the check of ForEachPreferredRepair, when the lists exceed the
// effective component_list_budget_bytes, or when the context was
// interrupted. A graph with no non-singleton component yields empty
// `choices`; its unique repair is graph.decomposition().isolated().
[[nodiscard]] std::optional<ComponentFamilyLists>
MaterializeComponentFamilyLists(const ConflictGraph& graph,
                                const Priority& priority, RepairFamily family,
                                const EvalOptions& options);

}  // namespace prefrep

#endif  // PREFREP_CORE_FAMILIES_H_
