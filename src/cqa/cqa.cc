#include "cqa/cqa.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <new>
#include <set>
#include <utility>

#include "base/exec_context.h"
#include "base/failpoint.h"
#include "base/thread_pool.h"
#include "graph/components.h"
#include "query/normal_form.h"
#include "query/prepared.h"

namespace prefrep {

namespace {

using DigitRange = ComponentProductEnumerator::DigitRange;

// A partition of the product space of per-component family lists into
// disjoint boxes (ComponentProductEnumerator::EnumerateSlices tasks), a
// few per worker so the work-stealing pool can rebalance uneven boxes.
struct CqaShardPlan {
  std::vector<std::vector<DigitRange>> chunks;
};

// Builds ~threads*4 chunks. One component's list rarely has enough
// entries on its own (multi-component instances often have many small
// lists but an astronomical product), so the planner works through the
// components by descending list length: it fixes whole digits — taking
// the cross product of their individual indices into the chunk set —
// while that keeps the chunk count at or under the target, then splits
// the next digit's range to make up the remainder. Chunk count stays
// under 2x the target; every chunk is a non-empty box (no list here is
// empty — callers return early for empty families).
CqaShardPlan PlanCqaShards(
    const std::vector<std::vector<DynamicBitset>>& choices, int threads) {
  const size_t target = static_cast<size_t>(threads) * size_t{4};
  std::vector<int> order(choices.size());
  for (size_t c = 0; c < order.size(); ++c) order[c] = static_cast<int>(c);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return choices[a].size() > choices[b].size();
  });
  CqaShardPlan plan;
  plan.chunks.emplace_back();  // one chunk covering the whole product
  size_t count = 1;
  for (int digit : order) {
    const size_t length = choices[digit].size();
    if (count >= target || length <= 1) break;  // nothing more to gain
    std::vector<std::vector<DigitRange>> expanded;
    if (count * length <= target) {
      // Fix this digit: every chunk splits into one chunk per index.
      expanded.reserve(plan.chunks.size() * length);
      for (const std::vector<DigitRange>& chunk : plan.chunks) {
        for (size_t i = 0; i < length; ++i) {
          expanded.push_back(chunk);
          expanded.back().push_back({digit, i, i + 1});
        }
      }
      count *= length;
    } else {
      // Last digit: split its range just enough to reach the target.
      size_t splits = std::min(length, (target + count - 1) / count);
      expanded.reserve(plan.chunks.size() * splits);
      for (const std::vector<DigitRange>& chunk : plan.chunks) {
        for (size_t s = 0; s < splits; ++s) {
          expanded.push_back(chunk);
          expanded.back().push_back(
              {digit, length * s / splits, length * (s + 1) / splits});
        }
      }
      count *= splits;
    }
    plan.chunks = std::move(expanded);
  }
  return plan;
}

// The enumeration driver a serial CQA loop runs on: either the standard
// product-based EnumeratePreferredRepairs or, when the caller already
// knows the component lists exceed the byte budget, the streaming
// fallback (re-attempting the doomed materialization would run the
// exponential core twice).
using EnumerateRepairsFn = std::function<bool(
    const std::function<bool(const DynamicBitset&)>& callback)>;

// Runs `eval_repair(chunk, worker, repair)` over every repair of the
// product, sharded across the caller's work-stealing pool; `abort` is
// shared with the callbacks so any shard can stop the others (after a
// worker error, or once the merged result can no longer change).
// eval_repair returning false also raises `abort`. The callback always
// runs with `worker` < pool.thread_count(), so callers index per-worker
// state (compiled query copies) with it and per-chunk state (partial
// results, Status slots) with `chunk`. Returns the pool's Status: non-OK
// when a worker threw or `context` was interrupted (each enumerator also
// polls the context per odometer tick).
[[nodiscard]] Status ForEachRepairSharded(
    const ComponentFamilyLists& lists, const CqaShardPlan& plan,
    ThreadPool& pool, ExecutionContext* context, std::atomic<bool>* abort,
    const std::function<bool(size_t chunk, int worker,
                             const DynamicBitset& repair)>& eval_repair) {
  return pool.ParallelFor(
      plan.chunks.size(),
      [&](size_t chunk, int worker) {
        if (abort->load(std::memory_order_relaxed)) return;
        ComponentProductEnumerator product(lists.decomposition, &lists.choices,
                                           context);
        product.EnumerateSlices(
            plan.chunks[chunk],
            [&](const DynamicBitset& repair) {
              PREFREP_FAILPOINT("cqa.eval");
              if (context != nullptr) context->stats().AddRepairsExamined();
              if (!eval_repair(chunk, worker, repair)) {
                abort->store(true, std::memory_order_relaxed);
                return false;
              }
              return !abort->load(std::memory_order_relaxed);
            });
      },
      context);
}

// Wraps a serial per-repair callback with the context's poll / stats /
// failpoint instrumentation; without a context the callback runs bare (no
// extra indirection on the ungoverned fast path).
std::function<bool(const DynamicBitset&)> WrapSerialEval(
    ExecutionContext* context,
    const std::function<bool(const DynamicBitset&)>& callback) {
  if (context == nullptr) return callback;
  return [context, &callback](const DynamicBitset& repair) {
    PREFREP_FAILPOINT("cqa.eval");
    if (context->ShouldStop()) return false;
    context->stats().AddRepairsExamined();
    return callback(repair);
  };
}

// Drops from `keep` every row not also in `other`. The serial loop, the
// per-chunk partials and the chunk merge all intersect through this one
// helper — their behavioral identity is what makes the sharded answer set
// provably equal to the serial one.
void IntersectInPlace(std::set<Tuple>* keep, const std::set<Tuple>& other) {
  for (auto it = keep->begin(); it != keep->end();) {
    it = other.contains(*it) ? std::next(it) : keep->erase(it);
  }
}

// The one orchestration point both CQA entry points share: picks the
// sharded or serial loop for `options` and hands it the right enumeration
// driver. threads > 1 materializes the per-component lists once (a single
// pool serves both materialization and eval sharding) and dispatches to
// `sharded(lists, pool)`; when the lists blow the byte budget it runs
// `serial` over the streaming fallback — with O(depth) memory, instead of
// re-running the materialization that just failed. Connected graphs take
// the serial path at every thread count: there the serial enumerator
// streams in place with early-stop, so materializing up front (the
// sharded prerequisite) could cost unboundedly more than the verdict
// needs — on multi-component graphs the serial path materializes the
// very same per-component lists, so sharding adds no memory or
// materialization the serial run wouldn't. threads <= 1, and instances
// with no component to shard over (a single repair of isolated
// vertices), also run `serial` over the standard enumerator.
template <typename ShardedFn, typename SerialFn>
auto RunCqa(const RepairProblem& problem, const Priority& priority,
            RepairFamily family, const ParallelOptions& options,
            const ShardedFn& sharded, const SerialFn& serial) {
  ExecutionContext* context = options.context;
  if (options.threads > 1 && !SpansOneComponent(problem.graph())) {
    ThreadPool pool(options.threads);
    std::optional<ComponentFamilyLists> lists = MaterializeComponentFamilyLists(
        problem.graph(), priority, family, options, &pool);
    if (!lists.has_value()) {
      return serial([&](const std::function<bool(const DynamicBitset&)>& cb) {
        return EnumeratePreferredRepairsStreaming(problem.graph(), priority,
                                                  family,
                                                  WrapSerialEval(context, cb),
                                                  context);
      });
    }
    if (!lists->choices.empty()) {
      return sharded(*lists, pool);
    }
  }
  return serial([&](const std::function<bool(const DynamicBitset&)>& cb) {
    return EnumeratePreferredRepairs(problem.graph(), priority, family,
                                     options, WrapSerialEval(context, cb));
  });
}

}  // namespace

std::string_view CqaVerdictName(CqaVerdict verdict) {
  switch (verdict) {
    case CqaVerdict::kCertainlyTrue:
      return "certainly-true";
    case CqaVerdict::kCertainlyFalse:
      return "certainly-false";
    case CqaVerdict::kUndetermined:
      return "undetermined";
  }
  return "?";
}

namespace {

// Sharded verdict: every worker evaluates its repair slices with a
// private copy of the compiled query and reports which outcomes it saw
// into one shared bit mask (bit 0: satisfying repair, bit 1: falsifying).
// OR-ing outcome bits is commutative, so the merged mask — and therefore
// the verdict — is exactly what the serial loop computes; once both bits
// are set no further repair can change it and every shard stops.
Result<CqaVerdict> ShardedConsistentAnswer(const ComponentFamilyLists& lists,
                                           const PreparedQuery& prepared,
                                           ThreadPool& pool,
                                           ExecutionContext* context) {
  for (const std::vector<DynamicBitset>& list : lists.choices) {
    // An empty component list makes the family empty: vacuously true,
    // matching the serial loop (whose callback never runs).
    if (list.empty()) return CqaVerdict::kCertainlyTrue;
  }
  CqaShardPlan plan = PlanCqaShards(lists.choices, pool.thread_count());
  std::vector<PreparedQuery> worker_query(pool.thread_count(), prepared);
  std::vector<Status> chunk_status(plan.chunks.size(), Status::Ok());
  std::atomic<uint32_t> seen_mask{0};
  std::atomic<bool> abort{false};
  Status pool_status = ForEachRepairSharded(
      lists, plan, pool, context, &abort,
      [&](size_t chunk, int worker, const DynamicBitset& repair) {
        Result<bool> holds = worker_query[worker].EvalClosed(&repair);
        if (!holds.ok()) {
          chunk_status[chunk] = holds.status();
          return false;
        }
        uint32_t bit = *holds ? 1u : 2u;
        uint32_t mask =
            seen_mask.fetch_or(bit, std::memory_order_relaxed) | bit;
        return mask != 3u;  // stop every shard once both observed
      });
  for (const Status& status : chunk_status) {
    PREFREP_RETURN_IF_ERROR(status);
  }
  PREFREP_RETURN_IF_ERROR(pool_status);
  uint32_t mask = seen_mask.load(std::memory_order_relaxed);
  if (mask == 3u) return CqaVerdict::kUndetermined;
  if (mask == 2u) return CqaVerdict::kCertainlyFalse;
  return CqaVerdict::kCertainlyTrue;
}

// The serial verdict loop, over whichever enumeration driver fits the
// caller's situation (see EnumerateRepairsFn).
Result<CqaVerdict> SerialConsistentAnswer(const PreparedQuery& prepared,
                                          const EnumerateRepairsFn& enumerate) {
  bool seen_true = false;
  bool seen_false = false;
  Status eval_error = Status::Ok();
  enumerate([&](const DynamicBitset& repair) {
    Result<bool> holds = prepared.EvalClosed(&repair);
    if (!holds.ok()) {
      eval_error = holds.status();
      return false;
    }
    (*holds ? seen_true : seen_false) = true;
    return !(seen_true && seen_false);  // stop once both observed
  });
  PREFREP_RETURN_IF_ERROR(eval_error);
  if (seen_true && seen_false) return CqaVerdict::kUndetermined;
  if (seen_false) return CqaVerdict::kCertainlyFalse;
  // All repairs satisfy Q (or the family was empty, which P1-families
  // never are; vacuously true then).
  return CqaVerdict::kCertainlyTrue;
}

}  // namespace

Result<CqaVerdict> EnumeratedConsistentAnswer(const RepairProblem& problem,
                                              const Priority& priority,
                                              RepairFamily family,
                                              PreparedQuery prepared,
                                              ParallelOptions options) try {
  if (!prepared.is_closed()) {
    return Status::InvalidArgument(
        "consistent answers need a closed query (prepared query has free "
        "variables)");
  }
  Result<CqaVerdict> verdict = RunCqa(
      problem, priority, family, options,
      [&](const ComponentFamilyLists& lists, ThreadPool& pool) {
        return ShardedConsistentAnswer(lists, prepared, pool, options.context);
      },
      [&](const EnumerateRepairsFn& enumerate) {
        return SerialConsistentAnswer(prepared, enumerate);
      });
  // A context interrupt truncates the enumeration silently (callbacks just
  // return false); surface it here so the caller never mistakes a partial
  // verdict for a complete one.
  if (options.context != nullptr && options.context->interrupted()) {
    return options.context->StatusWithStats();
  }
  return verdict;
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted("allocation failed during enumerated CQA");
}

namespace {

// Sharded open answers: every worker intersects the answer sets of the
// repairs in its slices into a per-chunk partial set; set intersection is
// commutative and associative, so intersecting the partials (in any
// order) equals the serial running intersection. A chunk whose partial
// empties proves the global intersection empty and stops the rest.
Result<OpenAnswer> ShardedConsistentAnswers(const ComponentFamilyLists& lists,
                                            const PreparedQuery& prepared,
                                            ThreadPool& pool,
                                            ExecutionContext* context) {
  for (const std::vector<DynamicBitset>& list : lists.choices) {
    // Empty family: no repair ever ran, matching the serial loop's empty
    // OpenAnswer (variables included — they are set on the first repair).
    if (list.empty()) return OpenAnswer{};
  }
  CqaShardPlan plan = PlanCqaShards(lists.choices, pool.thread_count());
  std::vector<PreparedQuery> worker_query(pool.thread_count(), prepared);
  std::vector<Status> chunk_status(plan.chunks.size(), Status::Ok());
  struct ChunkPartial {
    std::set<Tuple> rows;
    bool any = false;
  };
  std::vector<ChunkPartial> partial(plan.chunks.size());
  std::atomic<bool> emptied{false};
  std::atomic<bool> abort{false};
  Status pool_status = ForEachRepairSharded(
      lists, plan, pool, context, &abort,
      [&](size_t chunk, int worker, const DynamicBitset& repair) {
        Result<OpenAnswer> answer = worker_query[worker].EvalOpen(&repair);
        if (!answer.ok()) {
          chunk_status[chunk] = answer.status();
          return false;
        }
        ChunkPartial& mine = partial[chunk];
        if (!mine.any) {
          mine.rows.insert(answer->rows.begin(), answer->rows.end());
          mine.any = true;
        } else {
          std::set<Tuple> here(answer->rows.begin(), answer->rows.end());
          IntersectInPlace(&mine.rows, here);
        }
        if (mine.rows.empty()) {
          emptied.store(true, std::memory_order_relaxed);
          return false;
        }
        return true;
      });
  for (const Status& status : chunk_status) {
    PREFREP_RETURN_IF_ERROR(status);
  }
  PREFREP_RETURN_IF_ERROR(pool_status);
  OpenAnswer out;
  out.variables = prepared.free_variables();
  if (emptied.load(std::memory_order_relaxed)) return out;
  // No shard emptied (and none aborted), so every chunk saw all of its
  // repairs: the certain answers are the intersection of the partials.
  std::set<Tuple> certain = std::move(partial[0].rows);
  for (size_t chunk = 1; chunk < partial.size(); ++chunk) {
    IntersectInPlace(&certain, partial[chunk].rows);
  }
  out.rows.assign(certain.begin(), certain.end());
  return out;
}

}  // namespace

namespace {

// The serial open-answer loop, over whichever enumeration driver fits the
// caller's situation (see EnumerateRepairsFn).
Result<OpenAnswer> SerialConsistentAnswers(const PreparedQuery& prepared,
                                           const EnumerateRepairsFn& enumerate) {
  bool first = true;
  std::set<Tuple> certain;
  std::vector<std::string> variables;
  Status eval_error = Status::Ok();
  enumerate([&](const DynamicBitset& repair) {
    Result<OpenAnswer> answer = prepared.EvalOpen(&repair);
    if (!answer.ok()) {
      eval_error = answer.status();
      return false;
    }
    if (first) {
      variables = answer->variables;
      certain.insert(answer->rows.begin(), answer->rows.end());
      first = false;
    } else {
      std::set<Tuple> here(answer->rows.begin(), answer->rows.end());
      IntersectInPlace(&certain, here);
    }
    return !certain.empty() || first;  // nothing left to lose: stop
  });
  PREFREP_RETURN_IF_ERROR(eval_error);
  OpenAnswer out;
  out.variables = std::move(variables);
  out.rows.assign(certain.begin(), certain.end());
  return out;
}

}  // namespace

Result<OpenAnswer> EnumeratedConsistentAnswers(const RepairProblem& problem,
                                               const Priority& priority,
                                               RepairFamily family,
                                               PreparedQuery prepared,
                                               ParallelOptions options) try {
  Result<OpenAnswer> answers = RunCqa(
      problem, priority, family, options,
      [&](const ComponentFamilyLists& lists, ThreadPool& pool) {
        return ShardedConsistentAnswers(lists, prepared, pool, options.context);
      },
      [&](const EnumerateRepairsFn& enumerate) {
        return SerialConsistentAnswers(prepared, enumerate);
      });
  if (options.context != nullptr && options.context->interrupted()) {
    return options.context->StatusWithStats();
  }
  return answers;
} catch (const std::bad_alloc&) {
  return Status::ResourceExhausted("allocation failed during enumerated CQA");
}

namespace {

// Decides whether some repair satisfies the ground disjunct: it must
// contain all positive facts, avoid all negative ones, and all constant
// comparisons must hold.
Result<bool> DisjunctSatisfiableBySomeRepair(const RepairProblem& problem,
                                             const GroundDisjunct& disjunct) {
  const ConflictGraph& graph = problem.graph();
  int n = graph.vertex_count();

  DynamicBitset required(n);   // positive facts (must be in the repair)
  std::vector<TupleId> excluded;  // facts that must be out

  for (const GroundLiteral& lit : disjunct) {
    if (!lit.is_atom) {
      if (!lit.ComparisonHolds()) return false;
      continue;
    }
    auto id = problem.db().FindTuple(lit.relation, lit.tuple);
    if (lit.positive) {
      // A fact not in the database is in no repair.
      if (!id.ok()) return false;
      required.Set(*id);
    } else {
      // A fact not in the database is absent from every repair: trivially
      // satisfied.
      if (id.ok()) excluded.push_back(*id);
    }
  }

  // The positive part must be conflict-free.
  if (!graph.IsIndependent(required)) return false;

  // Every excluded fact must be kept out of a *maximal* independent set
  // containing `required`, i.e. blocked by a conflicting witness in the
  // repair. A fact both required and excluded is contradictory.
  std::sort(excluded.begin(), excluded.end());
  excluded.erase(std::unique(excluded.begin(), excluded.end()),
                 excluded.end());
  std::vector<TupleId> need_witness;
  for (TupleId s : excluded) {
    if (required.Test(s)) return false;
    if (graph.Neighbors(s).Intersects(required)) continue;  // already blocked
    need_witness.push_back(s);
  }

  // Backtracking over witness choices w_s ∈ n(s): the witnesses must be
  // mutually consistent and consistent with the required facts, and must
  // not be excluded facts themselves. The search depth is the number of
  // negative literals (fixed with the query), so this is data-polynomial.
  // Candidate masks come from a pooled scratch buffer per search level, so
  // the backtracking itself stays off the heap.
  DynamicBitset excluded_mask(n);
  for (TupleId s : excluded) excluded_mask.Set(s);

  BitsetPool pool(n);
  std::function<bool(size_t, DynamicBitset&)> search =
      [&](size_t index, DynamicBitset& chosen) -> bool {
    if (index == need_witness.size()) return true;
    TupleId s = need_witness[index];
    if (graph.Neighbors(s).Intersects(chosen)) {
      // Already blocked by a previously chosen witness.
      return search(index + 1, chosen);
    }
    BitsetPool::Handle candidates = pool.Acquire();
    candidates->AssignDifference(graph.Neighbors(s), excluded_mask);
    for (int w = candidates->FirstSetBit(); w >= 0;
         w = candidates->NextSetBit(w + 1)) {
      // The witness must not conflict with anything selected so far.
      if (graph.Neighbors(w).Intersects(chosen)) continue;
      chosen.Set(w);
      if (search(index + 1, chosen)) return true;
      chosen.Reset(w);
    }
    return false;
  };

  DynamicBitset chosen = required;
  return search(0, chosen);
}

// The certainty test both ground engines share: `true` is the consistent
// answer iff no repair satisfies any disjunct of the negated query's DNF.
// `context` is polled once per disjunct; an interrupt returns its status.
Result<bool> NoRepairSatisfiesAnyDisjunct(
    const RepairProblem& problem, const std::vector<GroundDisjunct>& dnf,
    ExecutionContext* context) {
  for (const GroundDisjunct& disjunct : dnf) {
    PREFREP_FAILPOINT("cqa.ground_disjunct");
    if (context != nullptr && context->ShouldStop()) {
      return context->StatusWithStats();
    }
    PREFREP_ASSIGN_OR_RETURN(
        bool satisfiable, DisjunctSatisfiableBySomeRepair(problem, disjunct));
    if (satisfiable) return false;
  }
  return true;
}

// Clamps a caller-supplied DNF cap to the context's limit.
size_t EffectiveDnfDisjunctCap(size_t max_dnf_disjuncts,
                               const ExecutionContext* context) {
  if (context == nullptr) return max_dnf_disjuncts;
  return std::min(max_dnf_disjuncts, context->limits().max_dnf_disjuncts);
}

size_t EffectiveDnfLiteralCap(const ExecutionContext* context) {
  if (context == nullptr) return kDefaultDnfLiteralBudget;
  return std::min(kDefaultDnfLiteralBudget,
                  context->limits().max_dnf_literals);
}

}  // namespace

Result<bool> GroundConsistentAnswer(const RepairProblem& problem,
                                    const Query& query,
                                    size_t max_dnf_disjuncts,
                                    ExecutionContext* context) {
  PREFREP_RETURN_IF_ERROR(ValidateQuery(problem.db(), query));
  if (!query.IsGround() || !query.IsQuantifierFree()) {
    return Status::InvalidArgument(
        "GroundConsistentAnswer handles ground quantifier-free queries; "
        "use PlannedConsistentAnswer for " +
        query.ToString());
  }
  std::unique_ptr<Query> negated = Query::Not(query.Clone());
  PREFREP_ASSIGN_OR_RETURN(
      std::vector<GroundDisjunct> dnf,
      GroundDnf(*negated, EffectiveDnfDisjunctCap(max_dnf_disjuncts, context),
                EffectiveDnfLiteralCap(context)));
  return NoRepairSatisfiesAnyDisjunct(problem, dnf, context);
}

Result<OpenAnswer> GroundConsistentOpenAnswers(const RepairProblem& problem,
                                               const Query& query,
                                               size_t max_dnf_disjuncts,
                                               ExecutionContext* context) {
  if (!query.IsQuantifierFree()) {
    return Status::InvalidArgument(
        "GroundConsistentOpenAnswers needs a quantifier-free query");
  }
  if (!IsNegationFree(query)) {
    return Status::InvalidArgument(
        "GroundConsistentOpenAnswers needs a negation-free (monotone) "
        "query; use PlannedConsistentAnswers");
  }
  // Candidates: answers over the full database (a superset of every
  // repair's answers, by monotonicity).
  PREFREP_ASSIGN_OR_RETURN(PreparedQuery prepared,
                           PreparedQuery::Compile(problem.db(), query));
  PREFREP_ASSIGN_OR_RETURN(OpenAnswer candidates, prepared.EvalOpen(nullptr));
  // Loop-invariant skeleton: the negated query's DNF is computed once;
  // each candidate row only substitutes its bindings into the disjunct
  // templates (instead of re-cloning, re-NNFing and re-DNFing the query
  // per row).
  std::unique_ptr<Query> negated = Query::Not(query.Clone());
  PREFREP_ASSIGN_OR_RETURN(
      std::vector<DisjunctTemplate> negated_dnf,
      QuantifierFreeDnf(*negated,
                        EffectiveDnfDisjunctCap(max_dnf_disjuncts, context),
                        EffectiveDnfLiteralCap(context)));
  OpenAnswer certain;
  certain.variables = candidates.variables;
  std::map<std::string, Value> bindings;
  std::vector<GroundDisjunct> ground_dnf(negated_dnf.size());
  for (const Tuple& row : candidates.rows) {
    if (context != nullptr && context->ShouldStop()) {
      return context->StatusWithStats();
    }
    bindings.clear();
    for (size_t i = 0; i < certain.variables.size(); ++i) {
      bindings.emplace(certain.variables[i],
                       row.value(static_cast<int>(i)));
    }
    for (size_t d = 0; d < negated_dnf.size(); ++d) {
      PREFREP_ASSIGN_OR_RETURN(ground_dnf[d],
                               InstantiateDisjunct(negated_dnf[d], bindings));
    }
    PREFREP_ASSIGN_OR_RETURN(
        bool is_certain,
        NoRepairSatisfiesAnyDisjunct(problem, ground_dnf, context));
    if (is_certain) certain.rows.push_back(row);
  }
  return certain;
}

Result<CqaVerdict> GroundConsistentVerdict(const RepairProblem& problem,
                                           const Query& query,
                                           size_t max_dnf_disjuncts,
                                           ExecutionContext* context) {
  PREFREP_ASSIGN_OR_RETURN(
      bool certainly_true,
      GroundConsistentAnswer(problem, query, max_dnf_disjuncts, context));
  if (certainly_true) return CqaVerdict::kCertainlyTrue;
  std::unique_ptr<Query> negated = Query::Not(query.Clone());
  PREFREP_ASSIGN_OR_RETURN(
      bool certainly_false,
      GroundConsistentAnswer(problem, *negated, max_dnf_disjuncts, context));
  if (certainly_false) return CqaVerdict::kCertainlyFalse;
  return CqaVerdict::kUndetermined;
}

}  // namespace prefrep
