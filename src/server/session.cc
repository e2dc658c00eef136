#include "server/session.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace prefrep {

namespace {

// The request kind of answer kind T (CqaVerdict or OpenAnswer).
template <typename T>
constexpr CqaRequest kRequestOf = std::is_same_v<T, CqaVerdict>
                                      ? CqaRequest::kVerdict
                                      : CqaRequest::kOpenAnswers;

// The planner entry point for answer kind T.
template <typename T>
Result<T> Planned(const RepairProblem& problem, const Priority& priority,
                  RepairFamily family, const Query& query,
                  const EvalOptions& options, CqaPlan* executed) {
  if constexpr (std::is_same_v<T, CqaVerdict>) {
    return PlannedConsistentAnswer(problem, priority, family, query, options,
                                   executed);
  } else {
    return PlannedConsistentAnswers(problem, priority, family, query, options,
                                    executed);
  }
}

char KindTag(CqaRequest kind) {
  return kind == CqaRequest::kVerdict ? 'v' : 'a';
}

// Result-cache key: every input that determines the answer, exactly. The
// priority is serialized arc-by-arc — never hashed — because a key
// collision here would silently return a wrong answer.
std::string ResultKey(CqaRequest kind, RepairFamily family,
                      const Priority& priority,
                      const std::string& query_text) {
  std::string key;
  key.reserve(query_text.size() + 16 + priority.arc_count() * 8);
  key += KindTag(kind);
  key += static_cast<char>('0' + static_cast<int>(family));
  key += '|';
  for (const auto& [x, y] : priority.arcs()) {
    key += std::to_string(x);
    key += '>';
    key += std::to_string(y);
    key += ',';
  }
  key += '|';
  key += query_text;
  return key;
}

// Plan-cache key: the planner reads the priority only through its
// emptiness (EffectiveFamily), so plans are shared across all non-empty
// priorities of one (query, family, kind, DNF budget).
std::string PlanKey(CqaRequest kind, RepairFamily family, bool priority_empty,
                    size_t max_dnf_disjuncts, const std::string& query_text) {
  std::string key;
  key.reserve(query_text.size() + 24);
  key += KindTag(kind);
  key += static_cast<char>('0' + static_cast<int>(family));
  key += priority_empty ? 'e' : 'p';
  key += std::to_string(max_dnf_disjuncts);
  key += '|';
  key += query_text;
  return key;
}

// Intersects two sorted int vectors (true iff nonempty intersection).
bool SortedIntersect(const std::vector<int>& a, const std::vector<int>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string SessionCacheStats::ToString() const {
  std::string out = "prepared " + std::to_string(prepared_hits) + "/" +
                    std::to_string(prepared_misses) + ", plan " +
                    std::to_string(plan_hits) + "/" +
                    std::to_string(plan_misses) + ", result " +
                    std::to_string(result_hits) + "/" +
                    std::to_string(result_misses) + " (hits/misses)";
  if (seeded_plans > 0 || seeded_results > 0 || seed_dropped > 0) {
    out += "; seeded plan " + std::to_string(seeded_plans) + ", result " +
           std::to_string(seeded_results) + ", dropped " +
           std::to_string(seed_dropped);
  }
  return out;
}

Session::Session(std::shared_ptr<const Snapshot> snapshot,
                 SessionOptions options)
    : snapshot_(std::move(snapshot)),
      options_(options),
      prepared_cache_(options.max_cache_entries),
      plan_cache_(options.max_cache_entries),
      result_cache_(options.max_cache_entries),
      paused_(options.start_paused) {
  const Database& db = snapshot_->db();
  const ComponentDecomposition& decomposition = snapshot_->decomposition();
  relation_components_.assign(db.relation_count(), {});
  for (TupleId id = 0; id < db.tuple_count(); ++id) {
    int component = decomposition.ComponentOf(id);
    if (component < 0) continue;
    std::vector<int>& row = relation_components_[db.RelationIndexOf(id)];
    if (row.empty() || row.back() != component) row.push_back(component);
  }
  for (std::vector<int>& row : relation_components_) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

Session::Session(std::shared_ptr<const Snapshot> snapshot,
                 const Session& parent, SessionOptions options)
    : Session(std::move(snapshot), options) {
  SeedFromParent(parent);
}

Session::~Session() {
  std::vector<std::shared_ptr<PendingRequest>> flushed;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
    // Fail everything still queued and interrupt whatever is running; the
    // dispatcher finishes its current request, then exits.
    for (std::shared_ptr<PendingRequest>& pending : queue_) {
      pending->state = RequestState::kDone;
      flushed.push_back(pending);
    }
    queue_.clear();
    for (auto& [id, pending] : requests_) {
      if (pending->state == RequestState::kRunning &&
          pending->context != nullptr) {
        pending->context->RequestCancel();
      }
    }
  }
  queue_cv_.notify_all();
  for (std::shared_ptr<PendingRequest>& pending : flushed) {
    pending->promise.set_value(CancelledResponse(*pending));
  }
  dispatcher_.join();
}

// ---- caches ---------------------------------------------------------------

std::vector<int> Session::ComponentsForRelations(
    const std::vector<int>& relations) const {
  std::vector<int> out;
  for (int relation : relations) {
    const std::vector<int>& row = relation_components_[relation];
    out.insert(out.end(), row.begin(), row.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Session::ResultFootprint Session::FootprintFor(const Query& query,
                                               const Priority& priority) const {
  ResultFootprint footprint;
  for (const std::string& name : ReferencedRelations(query)) {
    Result<int> relation = snapshot_->db().RelationIndex(name);
    // A relation absent from the database stays absent in every derived
    // version (deltas cannot add relations), so it never invalidates.
    if (relation.ok()) footprint.relations.push_back(*relation);
  }
  std::sort(footprint.relations.begin(), footprint.relations.end());
  footprint.components = ComponentsForRelations(footprint.relations);
  for (const auto& [x, y] : priority.arcs()) {
    footprint.max_tuple_id = std::max(footprint.max_tuple_id, std::max(x, y));
  }
  return footprint;
}

void Session::SeedFromParent(const Session& parent) {
  const SnapshotDeltaInfo* info = snapshot_->delta_info();
  CHECK(info != nullptr)
      << "derived-session constructor needs a snapshot from Snapshot::Derive";
  CHECK_EQ(info->parent_id, parent.snapshot().id())
      << "snapshot was not derived from the parent session's snapshot";

  // Relation stability in the new version: untouched by the delta AND all
  // ids below first_shifted_id (so global ids — mask bits, priority arcs —
  // denote the same tuples).
  const Database& db = snapshot_->db();
  std::vector<bool> stable(db.relation_count(), true);
  for (int relation : info->touched_relations) stable[relation] = false;
  for (int relation = 0; relation < db.relation_count(); ++relation) {
    if (!stable[relation]) continue;
    int size = db.relations()[relation].size();
    // Ids are appended per relation in insertion order: the last row holds
    // the relation's largest global id.
    if (size > 0 && db.GlobalId(relation, size - 1) >= info->first_shifted_id) {
      stable[relation] = false;
    }
  }
  // The planner reads exactly one instance property: conflict-freeness.
  // Plans transfer iff it is unchanged.
  const bool plans_transfer =
      (parent.snapshot().graph().edge_count() == 0) ==
      (snapshot_->graph().edge_count() == 0);

  std::scoped_lock lock(cache_mu_, parent.cache_mu_);
  if (plans_transfer) {
    parent.plan_cache_.ForEachLruToMru(
        [&](const std::string& key, const CqaPlan& plan) {
          plan_cache_.Put(key, plan);
          ++stats_.seeded_plans;
        });
  } else {
    stats_.seed_dropped += parent.plan_cache_.size();
  }
  parent.result_cache_.ForEachLruToMru([&](const std::string& key,
                                           const CachedResult& entry) {
    const ResultFootprint& footprint = entry.footprint;
    bool survives = info->domain_preserved &&
                    footprint.max_tuple_id < info->first_shifted_id &&
                    !SortedIntersect(footprint.components,
                                     info->dirty_parent_components);
    if (survives) {
      for (int relation : footprint.relations) {
        if (!stable[relation]) {
          survives = false;
          break;
        }
      }
    }
    if (!survives) {
      ++stats_.seed_dropped;
      return;
    }
    CachedResult seeded = entry;
    // Re-express the component footprint in the new decomposition's ids.
    seeded.footprint.components =
        ComponentsForRelations(seeded.footprint.relations);
    result_cache_.Put(key, std::move(seeded));
    ++stats_.seeded_results;
  });
  // Prepared masters are intentionally not seeded: they are compiled
  // against the parent database's tuple universe (mask sizing, quantifier
  // domains, row->id maps) and recompile lazily on first use instead.
}

Result<std::shared_ptr<const PreparedQuery>> Session::PreparedFor(
    const std::string& query_text, const Query& query) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    std::shared_ptr<const PreparedQuery>* master =
        prepared_cache_.Get(query_text);
    if (master != nullptr) {
      ++stats_.prepared_hits;
      return *master;
    }
    ++stats_.prepared_misses;
  }
  // Compile outside the lock: compilation cost is the whole point of the
  // cache. A racing thread may compile the same query; last insert wins
  // (the masters are equivalent either way).
  PREFREP_ASSIGN_OR_RETURN(PreparedQuery compiled,
                           PreparedQuery::Compile(snapshot_->db(), query));
  auto master = std::make_shared<const PreparedQuery>(std::move(compiled));
  std::lock_guard<std::mutex> lock(cache_mu_);
  prepared_cache_.Put(query_text, master);
  return master;
}

SessionCacheStats Session::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return stats_;
}

void Session::ClearCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  prepared_cache_.Clear();
  plan_cache_.Clear();
  result_cache_.Clear();
  // Counters restart with the emptied caches — a cleared session must not
  // report hit/miss/seed activity it can no longer back with entries.
  stats_ = SessionCacheStats{};
}

// ---- synchronous facade ---------------------------------------------------

template <typename T>
Result<T> Session::EvalCached(const Query& query, const Priority& priority,
                              RepairFamily family, const EvalOptions& options,
                              CqaPlan* executed, bool* cache_hit) {
  constexpr CqaRequest kKind = kRequestOf<T>;
  if (cache_hit != nullptr) *cache_hit = false;
  // A forced tier exists to really execute that tier; serving it from the
  // cache (or caching its result under the unforced key) would defeat it.
  if (options.force_tier.has_value()) {
    return Planned<T>(problem(), priority, family, query, options, executed);
  }
  const std::string query_text = query.ToString();
  const std::string result_key = ResultKey(kKind, family, priority, query_text);
  const std::string plan_key =
      PlanKey(kKind, family, PriorityIsEmpty(priority),
              options.limits.max_dnf_disjuncts, query_text);
  std::optional<CqaPlan> plan;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    CachedResult* entry = result_cache_.Get(result_key);
    if (entry != nullptr && entry->slot<T>().has_value()) {
      ++stats_.result_hits;
      if (executed != nullptr) *executed = entry->plan;
      if (cache_hit != nullptr) *cache_hit = true;
      return *entry->slot<T>();
    }
    ++stats_.result_misses;
    CqaPlan* cached_plan = plan_cache_.Get(plan_key);
    if (cached_plan != nullptr) {
      ++stats_.plan_hits;
      plan = *cached_plan;
    } else {
      ++stats_.plan_misses;
    }
  }
  PREFREP_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> prepared,
                           PreparedFor(query_text, query));
  EvalOptions seamed = options;
  seamed.prepared = prepared.get();
  if (plan.has_value()) seamed.precomputed_plan = &*plan;
  CqaPlan ran;
  Result<T> result =
      Planned<T>(problem(), priority, family, query, seamed, &ran);
  if (executed != nullptr) *executed = ran;
  if (result.ok()) {
    CachedResult entry;
    entry.slot<T>() = *result;
    entry.plan = ran;
    entry.footprint = FootprintFor(query, priority);
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (!plan.has_value()) {
      // Cache the plan that actually RAN (post any runtime fallback):
      // replaying it skips a doomed tier-1 attempt next time.
      plan_cache_.Put(plan_key, ran);
    }
    result_cache_.Put(result_key, std::move(entry));
  }
  return result;
}

Result<CqaVerdict> Session::Ask(const Query& query, const Priority& priority,
                                RepairFamily family,
                                const EvalOptions& options, CqaPlan* executed,
                                bool* cache_hit) {
  return EvalCached<CqaVerdict>(query, priority, family, options, executed,
                                cache_hit);
}

Result<OpenAnswer> Session::Answers(const Query& query,
                                    const Priority& priority,
                                    RepairFamily family,
                                    const EvalOptions& options,
                                    CqaPlan* executed, bool* cache_hit) {
  return EvalCached<OpenAnswer>(query, priority, family, options, executed,
                                cache_hit);
}

Result<AggregateRange> Session::Aggregate(std::string_view relation,
                                          std::string_view attribute,
                                          AggregateFunction fn,
                                          const Priority& priority,
                                          RepairFamily family,
                                          const EvalOptions& options,
                                          CqaPlan* executed) {
  return PlannedAggregateRange(problem(), priority, family, relation,
                               attribute, fn, options, executed);
}

Result<std::vector<DynamicBitset>> Session::Repairs(
    const Priority& priority, RepairFamily family,
    const EvalOptions& options) {
  return PreferredRepairs(snapshot_->graph(), priority, family, options);
}

CqaPlan Session::Explain(const Query& query, const Priority& priority,
                         RepairFamily family, CqaRequest kind,
                         const EvalOptions& options) const {
  return ExplainPlan(problem(), priority, family, query, kind, options);
}

// ---- asynchronous facade --------------------------------------------------

SessionResponse Session::CancelledResponse(const PendingRequest& pending) {
  SessionResponse response;
  response.id = pending.id;
  response.kind = pending.request.kind;
  Status cancelled = Status::Cancelled("request cancelled before completion");
  response.verdict = cancelled;
  response.answers = cancelled;
  return response;
}

Result<uint64_t> Session::Submit(SessionRequest request) {
  if (request.query == nullptr) {
    return Status::InvalidArgument("SessionRequest.query is null");
  }
  // A default-constructed priority stands for "no preferences": normalize
  // it to the snapshot's empty priority so family engines can index it.
  if (request.priority.vertex_count() == 0 &&
      snapshot_->graph().vertex_count() > 0) {
    request.priority = Priority::Empty(snapshot_->graph());
  }
  auto pending = std::make_shared<PendingRequest>();
  pending->request = std::move(request);
  if (pending->request.options.context == nullptr) {
    pending->context =
        std::make_unique<ExecutionContext>(pending->request.options.limits);
  }
  pending->future = pending->promise.get_future().share();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      return Status::FailedPrecondition("session is shutting down");
    }
    if (queue_.size() + running_ >= options_.max_pending_requests) {
      return Status::ResourceExhausted(
          "session admission limit reached (" +
          std::to_string(options_.max_pending_requests) +
          " requests queued or running)");
    }
    pending->id = ++next_request_id_;
    queue_.push_back(pending);
    requests_.emplace(pending->id, pending);
  }
  queue_cv_.notify_all();
  return pending->id;
}

Result<SessionResponse> Session::Wait(uint64_t request_id) {
  std::shared_ptr<PendingRequest> pending;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    auto it = requests_.find(request_id);
    if (it == requests_.end()) {
      return Status::NotFound("unknown request id " +
                              std::to_string(request_id));
    }
    pending = it->second;
  }
  SessionResponse response = pending->future.get();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    requests_.erase(request_id);
  }
  return response;
}

Status Session::Cancel(uint64_t request_id) {
  std::shared_ptr<PendingRequest> to_fail;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    auto it = requests_.find(request_id);
    if (it == requests_.end()) {
      return Status::NotFound("unknown request id " +
                              std::to_string(request_id));
    }
    std::shared_ptr<PendingRequest>& pending = it->second;
    switch (pending->state) {
      case RequestState::kQueued: {
        pending->state = RequestState::kDone;
        for (auto queue_it = queue_.begin(); queue_it != queue_.end();
             ++queue_it) {
          if ((*queue_it)->id == request_id) {
            queue_.erase(queue_it);
            break;
          }
        }
        to_fail = pending;
        break;
      }
      case RequestState::kRunning: {
        ExecutionContext* context = pending->context != nullptr
                                        ? pending->context.get()
                                        : pending->request.options.context;
        if (context != nullptr) context->RequestCancel();
        break;
      }
      case RequestState::kDone:
        break;  // already finished: cancelling is a no-op
    }
  }
  if (to_fail != nullptr) {
    to_fail->promise.set_value(CancelledResponse(*to_fail));
  }
  return Status::Ok();
}

void Session::ResumeDispatch() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

size_t Session::pending_requests() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size() + running_;
}

SessionResponse Session::Execute(PendingRequest& pending) {
  SessionResponse response;
  response.id = pending.id;
  response.kind = pending.request.kind;
  EvalOptions options = pending.request.options;
  if (pending.context != nullptr) {
    // Arm the deadline at execution start, not admission: queue time does
    // not count against the request's budget.
    if (options.deadline.has_value()) {
      pending.context->SetDeadlineAfter(*options.deadline);
    }
    options.context = pending.context.get();
  }
  const Query& query = *pending.request.query;
  CqaPlan ran;
  bool hit = false;
  if (pending.request.kind == CqaRequest::kVerdict) {
    response.verdict =
        EvalCached<CqaVerdict>(query, pending.request.priority,
                               pending.request.family, options, &ran, &hit);
  } else {
    response.answers =
        EvalCached<OpenAnswer>(query, pending.request.priority,
                               pending.request.family, options, &ran, &hit);
  }
  response.executed = ran;
  response.cache_hit = hit;
  return response;
}

void Session::DispatchLoop() {
  for (;;) {
    std::shared_ptr<PendingRequest> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_ || (!paused_ && !queue_.empty());
      });
      if (stop_) return;  // the destructor flushes whatever is queued
      pending = queue_.front();
      queue_.pop_front();
      pending->state = RequestState::kRunning;
      ++running_;
    }
    SessionResponse response = Execute(*pending);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending->state = RequestState::kDone;
      --running_;
    }
    pending->promise.set_value(std::move(response));
    queue_cv_.notify_all();
  }
}

}  // namespace prefrep
