// Session: the primary query-facing facade of the resident CQA server.
//
// A Session binds one immutable Snapshot (snapshot.h) to the caches and
// the request queue that make repeated querying cheap:
//
//   - PreparedQuery cache: one compilation per distinct query text; every
//     evaluation (any family, any priority, any tier) reuses the cached
//     master through a private copy — copying a compiled query is far
//     cheaper than re-validating, type-inferring and index-hashing it.
//   - Plan cache: one planner decision per (query, family, request kind,
//     priority emptiness, DNF budget); repeat calls skip re-planning,
//     including the query-exponential DNF pre-attempt.
//   - Result cache: memoized verdicts / certain-answer sets keyed by the
//     EXACT inputs that determine them — request kind, family, query text
//     and the priority's full arc list (never a hash: a collision would
//     silently return a wrong answer). Only OK results are cached, and
//     threads/deadline/limits are excluded from the key: answers are
//     bit-for-bit independent of them, and failures are never cached.
//
// Hit/miss counters for all three caches are exposed via cache_stats().
// `force_tier` bypasses the plan and result caches (a forced call exists
// to really execute a tier — the differential tests depend on it).
//
// The cache invalidation contract is structural: a Session's snapshot is
// immutable, so its caches can never go stale. New data means a new
// Snapshot and a new Session; the old session stays correct for the old
// version until dropped.
//
// For a snapshot built by Snapshot::Derive, the derived-session
// constructor seeds the plan and result caches from the parent session
// instead of starting cold. Each result entry carries an invalidation
// footprint — the referenced relations, the components they overlap, and
// the largest tuple id in its priority-arc key — and survives iff the
// delta left all of it untouched: the active domain is preserved, no
// footprint relation was touched or had ids shift (all its ids below
// first_shifted_id), and no footprint component is in the dirty set.
// Surviving entries get their component footprint re-expressed in the new
// decomposition; everything else is dropped. Plan entries are seeded
// whenever conflict-free-ness didn't change (the only instance property
// the planner reads). Prepared masters are NOT seeded: they are compiled
// against the parent's tuple universe (mask sizes, domains) and recompile
// lazily per query instead. All caches evict least-recently-used at
// max_cache_entries (lru_cache.h); seeding preserves the parent's recency
// order.
//
// Submit/Wait run requests on the session's dispatcher thread with
// admission control: at most max_pending_requests are queued or running,
// further Submits fail fast with kResourceExhausted. Each admitted
// request gets its own ExecutionContext, so Cancel works whether the
// request is still queued (fails it with kCancelled immediately) or
// already running (cooperative interrupt through the engines' poll
// points). Sync and async calls share the caches.
//
// Thread safety: all public methods are safe to call concurrently; the
// caches are internally locked, and evaluation never holds a lock.

#ifndef PREFREP_SERVER_SESSION_H_
#define PREFREP_SERVER_SESSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "base/eval_options.h"
#include "base/status.h"
#include "cqa/aggregation.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "priority/priority.h"
#include "query/ast.h"
#include "query/evaluator.h"
#include "query/prepared.h"
#include "server/lru_cache.h"
#include "server/snapshot.h"

namespace prefrep {

struct SessionOptions {
  // Per-cache entry cap (prepared / plan / result each); insertion past
  // the cap evicts the least-recently-used entry, bounding memory while
  // keeping the hot working set resident.
  size_t max_cache_entries = 1024;
  // Admission cap: queued + running async requests. Submits beyond it
  // fail with kResourceExhausted instead of queueing unboundedly.
  size_t max_pending_requests = 64;
  // Start the dispatcher paused: admitted requests queue but none runs
  // until ResumeDispatch(). Deterministic admission/cancellation tests.
  bool start_paused = false;
};

struct SessionCacheStats {
  uint64_t prepared_hits = 0;
  uint64_t prepared_misses = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  // Derived-session seeding: entries inherited from the parent session vs
  // dropped because the delta invalidated their footprint. Zero for
  // sessions built without a parent.
  uint64_t seeded_plans = 0;
  uint64_t seeded_results = 0;
  uint64_t seed_dropped = 0;

  // "prepared 3/1, plan 2/2, result 5/3 (hits/misses)"; a derived session
  // appends "; seeded plan 2, result 4, dropped 1".
  std::string ToString() const;
};

// An async request. `query` is required; a default-constructed priority
// stands for the empty priority over the snapshot's graph.
struct SessionRequest {
  CqaRequest kind = CqaRequest::kVerdict;
  std::unique_ptr<Query> query;
  Priority priority;
  RepairFamily family = RepairFamily::kAll;
  // options.context, when set, is used as-is (caller governance); when
  // null the session creates a per-request context from options.limits /
  // options.deadline so Cancel always has something to interrupt.
  EvalOptions options;
};

struct SessionResponse {
  uint64_t id = 0;
  CqaRequest kind = CqaRequest::kVerdict;
  // The populated member matches `kind`; the other keeps its "unset"
  // error (Result<T> always holds a value or a status).
  Result<CqaVerdict> verdict = Status::Internal("request produced no verdict");
  Result<OpenAnswer> answers = Status::Internal("request produced no answers");
  CqaPlan executed;
  bool cache_hit = false;
};

class Session {
 public:
  explicit Session(std::shared_ptr<const Snapshot> snapshot,
                   SessionOptions options = {});

  // Derived-session constructor: `snapshot` must come from
  // Snapshot::Derive with `parent.snapshot()` as its base. Seeds the plan
  // and result caches from `parent` per the contract in the file comment;
  // `parent` is only read during construction and not retained.
  Session(std::shared_ptr<const Snapshot> snapshot, const Session& parent,
          SessionOptions options = {});

  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Snapshot& snapshot() const { return *snapshot_; }

  // ---- synchronous facade -----------------------------------------------

  // Three-valued consistent answer to a closed query (cached).
  // `executed` (optional) receives the plan that ran; `cache_hit`
  // (optional) reports whether the result came from the cache.
  Result<CqaVerdict> Ask(const Query& query, const Priority& priority,
                         RepairFamily family, const EvalOptions& options = {},
                         CqaPlan* executed = nullptr,
                         bool* cache_hit = nullptr);

  // Certain answers to an open query (cached like Ask).
  Result<OpenAnswer> Answers(const Query& query, const Priority& priority,
                             RepairFamily family,
                             const EvalOptions& options = {},
                             CqaPlan* executed = nullptr,
                             bool* cache_hit = nullptr);

  // Aggregate range (uncached: no PreparedQuery to reuse and ranges are
  // cheap relative to their enumeration anyway).
  Result<AggregateRange> Aggregate(std::string_view relation,
                                   std::string_view attribute,
                                   AggregateFunction fn,
                                   const Priority& priority,
                                   RepairFamily family,
                                   const EvalOptions& options = {},
                                   CqaPlan* executed = nullptr);

  // Materialized preferred-repair list under the session snapshot.
  Result<std::vector<DynamicBitset>> Repairs(const Priority& priority,
                                             RepairFamily family,
                                             const EvalOptions& options = {});

  // The planner's routing decision, without executing.
  CqaPlan Explain(const Query& query, const Priority& priority,
                  RepairFamily family, CqaRequest kind = CqaRequest::kVerdict,
                  const EvalOptions& options = {}) const;

  // ---- asynchronous facade ----------------------------------------------

  // Admits `request` to the dispatcher queue and returns its id, or
  // kResourceExhausted when max_pending_requests are already queued or
  // running, or kInvalidArgument when request.query is null.
  Result<uint64_t> Submit(SessionRequest request);

  // Blocks until the request finishes (or was cancelled) and returns its
  // response; kNotFound for an id never issued or already collected.
  Result<SessionResponse> Wait(uint64_t request_id);

  // Cancels a request: a queued one completes immediately with
  // kCancelled, a running one is cooperatively interrupted through its
  // ExecutionContext. kNotFound for an unknown/collected id; OK (no-op)
  // for one that already finished.
  Status Cancel(uint64_t request_id);

  // Releases a start_paused dispatcher (idempotent).
  void ResumeDispatch();

  // Queued + running async requests.
  size_t pending_requests() const;

  // ---- cache management -------------------------------------------------

  // Counters since session construction or the last ClearCache().
  SessionCacheStats cache_stats() const;
  // Empties all three caches and zeroes cache_stats() — after a clear the
  // session reports no phantom hit/miss/seed/eviction activity.
  void ClearCache();

 private:
  // Everything the delta could invalidate about a cached result, recorded
  // at insert time in the session's own snapshot terms.
  struct ResultFootprint {
    std::vector<int> relations;   // referenced relation indices, sorted
    std::vector<int> components;  // components overlapping them, sorted
    TupleId max_tuple_id = -1;    // largest id in the priority-arc key
  };

  struct CachedResult {
    std::optional<CqaVerdict> verdict;
    std::optional<OpenAnswer> answers;
    CqaPlan plan;
    ResultFootprint footprint;

    // The member holding answer kind T (CqaVerdict or OpenAnswer).
    template <typename T>
    std::optional<T>& slot() {
      if constexpr (std::is_same_v<T, CqaVerdict>) {
        return verdict;
      } else {
        return answers;
      }
    }
  };

  enum class RequestState { kQueued, kRunning, kDone };

  struct PendingRequest {
    uint64_t id = 0;
    SessionRequest request;
    std::unique_ptr<ExecutionContext> context;  // null iff caller supplied one
    std::promise<SessionResponse> promise;
    std::shared_future<SessionResponse> future;
    RequestState state = RequestState::kQueued;  // guarded by queue_mu_
  };

  const RepairProblem& problem() const { return snapshot_->problem(); }

  // Returns the cached PreparedQuery master for `query_text`, compiling
  // and inserting on miss. Updates prepared hit/miss counters.
  Result<std::shared_ptr<const PreparedQuery>> PreparedFor(
      const std::string& query_text, const Query& query);

  // Components of this session's snapshot overlapping the given relation
  // indices (sorted union of relation_components_ rows).
  std::vector<int> ComponentsForRelations(
      const std::vector<int>& relations) const;
  // The invalidation footprint of a (query, priority) result in this
  // snapshot's terms.
  ResultFootprint FootprintFor(const Query& query,
                               const Priority& priority) const;
  // Copies surviving plan/result entries from `parent` (see the file
  // comment for the survival conditions). Called by the derived-session
  // constructor before any request runs.
  void SeedFromParent(const Session& parent);

  // The cached evaluation behind Ask (T = CqaVerdict), Answers
  // (T = OpenAnswer) and the dispatcher. A hit copies out only the
  // member it returns.
  template <typename T>
  Result<T> EvalCached(const Query& query, const Priority& priority,
                       RepairFamily family, const EvalOptions& options,
                       CqaPlan* executed, bool* cache_hit);

  void DispatchLoop();
  SessionResponse Execute(PendingRequest& pending);
  static SessionResponse CancelledResponse(const PendingRequest& pending);

  std::shared_ptr<const Snapshot> snapshot_;
  SessionOptions options_;

  // Components overlapping each relation (row = relation index), computed
  // once at construction — the snapshot is immutable, so this never
  // changes. Used for result footprints.
  std::vector<std::vector<int>> relation_components_;

  mutable std::mutex cache_mu_;
  SessionCacheStats stats_;
  LruCache<std::shared_ptr<const PreparedQuery>> prepared_cache_;
  LruCache<CqaPlan> plan_cache_;
  LruCache<CachedResult> result_cache_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  bool paused_ = false;
  bool stop_ = false;
  uint64_t next_request_id_ = 0;
  size_t running_ = 0;
  std::deque<std::shared_ptr<PendingRequest>> queue_;
  std::unordered_map<uint64_t, std::shared_ptr<PendingRequest>> requests_;
  std::thread dispatcher_;
};

}  // namespace prefrep

#endif  // PREFREP_SERVER_SESSION_H_
