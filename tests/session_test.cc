// Tests for the resident-server core (src/server/): Snapshot immutability
// and sharing, Session cache hit/miss semantics, the async request queue
// (admission control, cancellation), and the randomized differential suite
// proving cached answers bit-for-bit equal to the planner free functions.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cqa/planner.h"
#include "query/parser.h"
#include "server/session.h"
#include "server/snapshot.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

std::unique_ptr<Query> MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  CHECK(q.ok()) << q.status().ToString();
  return *std::move(q);
}

std::shared_ptr<const Snapshot> MustSnapshot(const GeneratedInstance& inst) {
  auto snapshot = Snapshot::Create(*inst.db, inst.fds);
  CHECK(snapshot.ok()) << snapshot.status().ToString();
  return *std::move(snapshot);
}

constexpr RepairFamily kAllFamilies[] = {
    RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kSemiGlobal,
    RepairFamily::kGlobal, RepairFamily::kCommon};

// ------------------------------------------------------------ snapshot --

TEST(SnapshotTest, CreateComputesDerivedStructuresOnce) {
  GeneratedInstance inst = MakeRnInstance(2);
  std::shared_ptr<const Snapshot> snapshot = MustSnapshot(inst);
  EXPECT_EQ(snapshot->problem().tuple_count(), snapshot->db().tuple_count());
  EXPECT_EQ(snapshot->graph().edge_count(), 2);
  EXPECT_EQ(snapshot->decomposition().vertex_count(),
            snapshot->problem().tuple_count());
  EXPECT_EQ(snapshot->decomposition().components().size(), 2u);
  EXPECT_GT(snapshot->id(), 0u);
  EXPECT_NE(snapshot->Describe().find("snapshot #"), std::string::npos);
}

TEST(SnapshotTest, OwnsItsDatabaseCopy) {
  GeneratedInstance inst = MakeRnInstance(2);
  std::shared_ptr<const Snapshot> snapshot = MustSnapshot(inst);
  int before = snapshot->db().tuple_count();
  ASSERT_GT(before, 0);
  // Destroying the source database must not affect the snapshot.
  inst.db.reset();
  EXPECT_EQ(snapshot->db().tuple_count(), before);
  EXPECT_EQ(snapshot->problem().tuple_count(), before);
}

TEST(SnapshotTest, IdsAreUniqueAndIncreasing) {
  GeneratedInstance inst = MakeRnInstance(2);
  std::shared_ptr<const Snapshot> a = MustSnapshot(inst);
  std::shared_ptr<const Snapshot> b = MustSnapshot(inst);
  EXPECT_LT(a->id(), b->id());
}

// ------------------------------------------------- cache hit/miss flow --

TEST(SessionCacheTest, RepeatQueryCompilesOnceAndHitsResultCache) {
  GeneratedInstance inst = MakeRnInstance(2);
  Session session(MustSnapshot(inst));
  Priority empty = Priority::Empty(session.snapshot().graph());
  auto query = MustParse("exists x, y . R(x, y)");

  bool hit = true;
  auto first =
      session.Ask(*query, empty, RepairFamily::kAll, {}, nullptr, &hit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(hit);

  auto second =
      session.Ask(*query, empty, RepairFamily::kAll, {}, nullptr, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(*first, *second);

  SessionCacheStats stats = session.cache_stats();
  // One compile total: the second call never reached the prepared cache
  // (the result cache answered first).
  EXPECT_EQ(stats.prepared_misses, 1u);
  EXPECT_EQ(stats.prepared_hits, 0u);
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_NE(stats.ToString().find("result 1/1"), std::string::npos);
}

TEST(SessionCacheTest, PreparedMasterIsSharedAcrossFamilies) {
  GeneratedInstance inst = MakeRnInstance(2);
  Session session(MustSnapshot(inst));
  Priority empty = Priority::Empty(session.snapshot().graph());
  auto query = MustParse("exists x, y . R(x, y)");

  // Five result-cache keys (the family differs), one compiled query.
  for (RepairFamily family : kAllFamilies) {
    auto verdict = session.Ask(*query, empty, family, {});
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(*verdict, CqaVerdict::kCertainlyTrue);
  }
  SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.prepared_misses, 1u);
  EXPECT_EQ(stats.prepared_hits, 4u);
  EXPECT_EQ(stats.result_misses, 5u);
  EXPECT_EQ(stats.result_hits, 0u);
}

TEST(SessionCacheTest, ResultCacheKeysOnExactPriorityArcs) {
  // r_2: tuple 0 = (0,0) conflicts with tuple 1 = (0,1). Under G-Rep the
  // arc orientation decides whether R(0, 0) is certainly true or false, so
  // a cache that collapsed priorities would return a wrong answer here.
  GeneratedInstance inst = MakeRnInstance(2);
  Session session(MustSnapshot(inst));
  const ConflictGraph& graph = session.snapshot().graph();
  auto keep0 = Priority::Create(graph, {{0, 1}});
  auto keep1 = Priority::Create(graph, {{1, 0}});
  ASSERT_TRUE(keep0.ok());
  ASSERT_TRUE(keep1.ok());

  auto query = MustParse("R(0, 0)");
  auto under0 = session.Ask(*query, *keep0, RepairFamily::kGlobal, {});
  auto under1 = session.Ask(*query, *keep1, RepairFamily::kGlobal, {});
  ASSERT_TRUE(under0.ok());
  ASSERT_TRUE(under1.ok());
  EXPECT_EQ(*under0, CqaVerdict::kCertainlyTrue);
  EXPECT_EQ(*under1, CqaVerdict::kCertainlyFalse);
  SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_misses, 2u);

  // Same arcs again: now both hit.
  ASSERT_TRUE(session.Ask(*query, *keep0, RepairFamily::kGlobal, {}).ok());
  ASSERT_TRUE(session.Ask(*query, *keep1, RepairFamily::kGlobal, {}).ok());
  EXPECT_EQ(session.cache_stats().result_hits, 2u);
}

TEST(SessionCacheTest, GovernedPlanIsNotReplayedForUngovernedAsk) {
  // The DNF caps in force key the plan cache: a tier-2 plan made under a
  // context capped at 1 disjunct must not be replayed for an ungoverned
  // Ask, whose default caps admit the polynomial tier 1. The second Ask
  // uses another priority so that it misses the result cache.
  Rng rng(1);
  GeneratedInstance inst = MakeComponentsInstance(rng, {3, 3});
  Session session(MustSnapshot(inst));
  const ConflictGraph& graph = session.snapshot().graph();
  Priority first = RandomRankingPriority(rng, graph, 1.0);
  Priority second = RandomRankingPriority(rng, graph, 0.5);
  ASSERT_GT(first.arc_count(), 0);
  ASSERT_GT(second.arc_count(), 0);
  ASSERT_NE(first.arcs(), second.arcs());
  auto query = MustParse("R(0, 0, 0) and R(1, 1, 1)");

  ExecutionLimits limits;
  limits.max_dnf_disjuncts = 1;
  ExecutionContext context(limits);
  EvalOptions governed;
  governed.context = &context;
  CqaPlan executed;
  auto capped =
      session.Ask(*query, first, RepairFamily::kAll, governed, &executed);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kEnumeration) << executed.ToString();

  auto ungoverned =
      session.Ask(*query, second, RepairFamily::kAll, {}, &executed);
  ASSERT_TRUE(ungoverned.ok()) << ungoverned.status().ToString();
  EXPECT_EQ(executed.tier, CqaTier::kGroundFastPath) << executed.ToString();
  EXPECT_EQ(*ungoverned, *capped);  // Rep reads no priority
  SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.plan_hits, 0u) << stats.ToString();
}

TEST(SessionCacheTest, ForcedTierBypassesResultCache) {
  GeneratedInstance inst = MakeRnInstance(2);
  Session session(MustSnapshot(inst));
  Priority empty = Priority::Empty(session.snapshot().graph());
  auto query = MustParse("exists x, y . R(x, y)");

  EvalOptions forced;
  forced.force_tier = CqaTier::kEnumeration;
  bool hit = true;
  auto first =
      session.Ask(*query, empty, RepairFamily::kAll, forced, nullptr, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto second =
      session.Ask(*query, empty, RepairFamily::kAll, forced, nullptr, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(hit);  // forced calls really execute, every time
  SessionCacheStats stats = session.cache_stats();
  EXPECT_EQ(stats.result_hits, 0u);
  EXPECT_EQ(stats.result_misses, 0u);
  EXPECT_EQ(stats.plan_hits + stats.plan_misses, 0u);
}

TEST(SessionCacheTest, EvictionKeepsAnswersCorrectUnderTinyCap) {
  Rng rng(7);
  GeneratedInstance inst = MakeComponentsInstance(rng, {3, 3, 2});
  SessionOptions options;
  options.max_cache_entries = 2;
  Session session(MustSnapshot(inst), options);
  Priority empty = Priority::Empty(session.snapshot().graph());
  std::vector<std::unique_ptr<Query>> queries;
  queries.push_back(MustParse("exists x, y, z . R(x, y, z)"));
  queries.push_back(MustParse("exists x, z . R(x, 0, z)"));
  queries.push_back(MustParse("exists y, z . R(0, y, z)"));
  std::vector<CqaVerdict> expected;
  for (const auto& q : queries) {
    auto verdict = session.Ask(*q, empty, RepairFamily::kAll, {});
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    expected.push_back(*verdict);
  }
  // Re-ask in reverse order: some entries were evicted, every answer must
  // still come back identical.
  for (size_t i = queries.size(); i-- > 0;) {
    auto verdict = session.Ask(*queries[i], empty, RepairFamily::kAll, {});
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(*verdict, expected[i]) << i;
  }
  // ClearCache drops entries AND counters: an emptied cache reports no
  // phantom activity, and the next ask is a fresh miss, still correct.
  ASSERT_GT(session.cache_stats().result_misses, 0u);
  session.ClearCache();
  SessionCacheStats cleared = session.cache_stats();
  EXPECT_EQ(cleared.prepared_hits, 0u);
  EXPECT_EQ(cleared.prepared_misses, 0u);
  EXPECT_EQ(cleared.plan_hits, 0u);
  EXPECT_EQ(cleared.plan_misses, 0u);
  EXPECT_EQ(cleared.result_hits, 0u);
  EXPECT_EQ(cleared.result_misses, 0u);
  bool hit = true;
  auto verdict =
      session.Ask(*queries[0], empty, RepairFamily::kAll, {}, nullptr, &hit);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(session.cache_stats().result_misses, 1u);
  EXPECT_EQ(*verdict, expected[0]);
}

// ------------------------------------ concurrent sessions, one snapshot --

TEST(SessionConcurrencyTest, SessionsShareOneSnapshotSafely) {
  Rng rng(11);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 3, 3});
  std::shared_ptr<const Snapshot> snapshot = MustSnapshot(inst);
  Session a(snapshot);
  Session b(snapshot);
  Priority empty = Priority::Empty(snapshot->graph());
  auto query = MustParse("exists x, y, z . R(x, y, z)");

  // Reference result through the free function, outside any session.
  auto expected = PlannedConsistentAnswer(snapshot->problem(), empty,
                                          RepairFamily::kAll, *query);
  ASSERT_TRUE(expected.ok());

  std::atomic<int> mismatches{0};
  auto hammer = [&](Session* session) {
    for (int i = 0; i < 25; ++i) {
      auto verdict = session->Ask(*query, empty, RepairFamily::kAll, {});
      if (!verdict.ok() || *verdict != *expected) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(hammer, &a);
    threads.emplace_back(hammer, &b);
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  // 100 calls total, 50 per session: every one answered correctly, and
  // each session's counters add up (the exact hit/miss split depends on
  // how the two threads race into the first evaluation).
  SessionCacheStats sa = a.cache_stats();
  SessionCacheStats sb = b.cache_stats();
  EXPECT_EQ(sa.result_hits + sa.result_misses, 50u);
  EXPECT_EQ(sb.result_hits + sb.result_misses, 50u);
  EXPECT_GE(sa.result_hits, 48u);
  EXPECT_GE(sb.result_hits, 48u);
}

// -------------------------------------------------------- async facade --

TEST(SessionAsyncTest, SubmitWaitMatchesSynchronousAnswer) {
  GeneratedInstance inst = MakeRnInstance(2);
  Session session(MustSnapshot(inst));
  Priority empty = Priority::Empty(session.snapshot().graph());
  auto query = MustParse("exists x, y . R(x, y)");
  auto expected = session.Ask(*query, empty, RepairFamily::kAll, {});
  ASSERT_TRUE(expected.ok());

  SessionRequest request;
  request.kind = CqaRequest::kVerdict;
  request.query = query->Clone();
  request.priority = empty;
  request.family = RepairFamily::kAll;
  auto id = session.Submit(std::move(request));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto response = session.Wait(*id);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->verdict.ok());
  EXPECT_EQ(*response->verdict, *expected);
  EXPECT_TRUE(response->cache_hit);  // the sync Ask above warmed the cache
  EXPECT_EQ(response->id, *id);

  // A collected id is gone.
  EXPECT_EQ(session.Wait(*id).status().code(), StatusCode::kNotFound);
}

TEST(SessionAsyncTest, OpenAnswersRequestRoundTrips) {
  GeneratedInstance inst = MakeRnInstance(2);
  Session session(MustSnapshot(inst));
  Priority empty = Priority::Empty(session.snapshot().graph());
  auto query = MustParse("R(x, y)");
  auto expected = session.Answers(*query, empty, RepairFamily::kAll, {});
  ASSERT_TRUE(expected.ok());

  SessionRequest request;
  request.kind = CqaRequest::kOpenAnswers;
  request.query = query->Clone();
  request.priority = empty;
  auto id = session.Submit(std::move(request));
  ASSERT_TRUE(id.ok());
  auto response = session.Wait(*id);
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->answers.ok());
  EXPECT_EQ(response->answers->variables, expected->variables);
  EXPECT_EQ(response->answers->rows, expected->rows);
}

TEST(SessionAsyncTest, SubmitRejectsNullQuery) {
  GeneratedInstance inst = MakeRnInstance(2);
  Session session(MustSnapshot(inst));
  auto id = session.Submit(SessionRequest{});
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionAsyncTest, AdmissionControlRejectsBeyondCap) {
  GeneratedInstance inst = MakeRnInstance(2);
  SessionOptions options;
  options.max_pending_requests = 2;
  options.start_paused = true;
  Session session(MustSnapshot(inst), options);

  auto make_request = [] {
    SessionRequest request;
    request.query = MustParse("exists x, y . R(x, y)");
    return request;
  };
  auto first = session.Submit(make_request());
  auto second = session.Submit(make_request());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(session.pending_requests(), 2u);

  auto third = session.Submit(make_request());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);

  // Draining the queue frees admission slots.
  session.ResumeDispatch();
  ASSERT_TRUE(session.Wait(*first).ok());
  ASSERT_TRUE(session.Wait(*second).ok());
  auto fourth = session.Submit(make_request());
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  auto response = session.Wait(*fourth);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->verdict.ok());
}

TEST(SessionAsyncTest, CancelQueuedRequestFailsFastWithCancelled) {
  GeneratedInstance inst = MakeRnInstance(2);
  SessionOptions options;
  options.start_paused = true;
  Session session(MustSnapshot(inst), options);

  SessionRequest request;
  request.query = MustParse("exists x, y . R(x, y)");
  auto id = session.Submit(std::move(request));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(session.pending_requests(), 1u);

  ASSERT_TRUE(session.Cancel(*id).ok());
  EXPECT_EQ(session.pending_requests(), 0u);
  // Resolves without ever resuming the dispatcher: the cancel itself
  // completed the request.
  auto response = session.Wait(*id);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->verdict.status().code(), StatusCode::kCancelled);

  EXPECT_EQ(session.Cancel(12345).code(), StatusCode::kNotFound);
}

TEST(SessionAsyncTest, DestructorFailsQueuedRequestsWithCancelled) {
  GeneratedInstance inst = MakeRnInstance(2);
  SessionOptions options;
  options.start_paused = true;
  auto session = std::make_unique<Session>(MustSnapshot(inst), options);
  SessionRequest request;
  request.query = MustParse("exists x, y . R(x, y)");
  auto id = session->Submit(std::move(request));
  ASSERT_TRUE(id.ok());
  // Destroying the session with a queued request must not hang.
  session.reset();
}

// ------------------------------------ priorities of another snapshot --

TEST(SessionDerivedTest, ParentPriorityIsInvalidArgumentOnDerivedSnapshot) {
  // A priority is built over one snapshot's conflict graph. A derived
  // snapshot that inserts two tuples has another graph, so every family
  // that reads a priority must reject the parent's with kInvalidArgument,
  // through every entry point, instead of indexing past its end. Rep
  // reads no priority and still answers. Two shapes: the inserts open a
  // new component of a multi-component instance, or extend a connected
  // chain.
  Rng rng(41);
  GeneratedInstance components = MakeComponentsInstance(rng, {3, 4, 3});
  GeneratedInstance chain = MakeChainInstance(10);
  for (const GeneratedInstance* inst : {&components, &chain}) {
    const bool is_chain = inst == &chain;
    std::shared_ptr<const Snapshot> parent = MustSnapshot(*inst);
    Priority priority = RandomRankingPriority(rng, parent->graph(), 0.7);
    ASSERT_GT(priority.arc_count(), 0);
    DatabaseDelta delta(&parent->db());
    if (is_chain) {
      // t_10 shares C with t_9 and t_11 shares A with t_10: a chain of 12.
      ASSERT_TRUE(delta.Insert("R", Tuple::Of(Value::Number(5),
                                              Value::Number(0),
                                              Value::Number(5),
                                              Value::Number(0)))
                      .ok());
      ASSERT_TRUE(delta.Insert("R", Tuple::Of(Value::Number(5),
                                              Value::Number(1),
                                              Value::Number(6),
                                              Value::Number(1)))
                      .ok());
    } else {
      for (int v = 0; v < 2; ++v) {
        ASSERT_TRUE(delta.Insert("R", Tuple::Of(Value::Number(99),
                                                Value::Number(v),
                                                Value::Number(0)))
                        .ok());
      }
    }
    auto child = Snapshot::Derive(parent, delta);
    ASSERT_TRUE(child.ok()) << child.status().ToString();
    const ComponentDecomposition& shape = (*child)->graph().decomposition();
    ASSERT_EQ(shape.components().size() == 1 && shape.isolated().None(),
              is_chain);
    Session session(*child);
    auto closed = MustParse(is_chain ? "exists a, b, c . R(a, b, c, 0)"
                                     : "exists y, z . R(0, y, z)");
    auto open = MustParse(is_chain ? "exists c, d . R(a, b, c, d)"
                                   : "exists z . R(x, y, z)");
    const std::string attribute = is_chain ? "B" : "V";
    for (RepairFamily family : kAllFamilies) {
      SCOPED_TRACE(std::string(RepairFamilyName(family)) +
                   (is_chain ? " on the chain" : " on components"));
      std::vector<Status> statuses = {
          session.Ask(*closed, priority, family).status(),
          session.Answers(*open, priority, family).status(),
          session
              .Aggregate("R", attribute, AggregateFunction::kSum, priority,
                         family)
              .status(),
          session.Repairs(priority, family).status()};
      for (const Status& status : statuses) {
        if (family == RepairFamily::kAll) {
          EXPECT_TRUE(status.ok()) << status.ToString();
        } else {
          EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
              << status.ToString();
        }
      }
    }
  }
}

// ---------------------------- differential: cached == uncached, bitwise --

// Mirrors planner_test.cc's random-query generators so the session suite
// sweeps the same query-shape space.
std::unique_ptr<Query> RandomAtom(Rng& rng, const Relation& rel, int arity,
                                  const std::vector<std::string>& vars) {
  std::vector<Term> terms;
  const Tuple* sample =
      rel.size() > 0
          ? &rel.tuple(static_cast<int>(rng.UniformInt(rel.size())))
          : nullptr;
  for (int i = 0; i < arity; ++i) {
    if (!vars.empty() && rng.Bernoulli(0.3)) {
      terms.push_back(
          Term::Var(vars[static_cast<size_t>(rng.UniformInt(vars.size()))]));
    } else if (sample != nullptr && rng.Bernoulli(0.7)) {
      terms.push_back(Term::Const(sample->values()[static_cast<size_t>(i)]));
    } else {
      terms.push_back(
          Term::ConstNumber(static_cast<int64_t>(rng.UniformInt(4))));
    }
  }
  return Query::Atom("R", std::move(terms));
}

std::unique_ptr<Query> RandomQuery(Rng& rng, const Relation& rel, int arity,
                                   const std::vector<std::string>& vars,
                                   bool allow_negation) {
  std::vector<std::unique_ptr<Query>> literals;
  int count = 1 + static_cast<int>(rng.UniformInt(3));
  for (int i = 0; i < count; ++i) {
    std::unique_ptr<Query> atom = RandomAtom(rng, rel, arity, vars);
    literals.push_back(allow_negation && rng.Bernoulli(0.35)
                           ? Query::Not(std::move(atom))
                           : std::move(atom));
  }
  if (literals.size() == 1) return std::move(literals[0]);
  return rng.Bernoulli(0.5) ? Query::And(std::move(literals))
                            : Query::Or(std::move(literals));
}

TEST(SessionDifferentialTest, CachedAnswersMatchPlannerFreeFunctions) {
  // Deterministic by default; sweep extra seeds via the same env knob the
  // planner differential uses.
  uint64_t seed = 20260808;
  if (const char* env = std::getenv("PLANNER_TEST_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  Rng rng(seed);
  int verdicts_compared = 0;
  int answer_sets_compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    GeneratedInstance inst = MakeRandomInstance(rng, 10, 3, 3, 2);
    std::shared_ptr<const Snapshot> snapshot = MustSnapshot(inst);
    Session session(snapshot);
    const Relation& rel = *inst.db->relation("R").value();
    Priority priority = [&]() {
      switch (trial % 3) {
        case 0:
          return Priority::Empty(snapshot->graph());
        case 1:
          return RandomRankingPriority(rng, snapshot->graph(), 0.7);
        default:
          return RandomDagPriority(rng, snapshot->graph(), 0.7);
      }
    }();
    RepairFamily family = kAllFamilies[trial % 5];

    for (int q = 0; q < 3; ++q) {
      // Ground closed, quantified closed, open with negation.
      std::unique_ptr<Query> query;
      switch (q) {
        case 0:
          query = RandomQuery(rng, rel, 3, {}, /*allow_negation=*/true);
          break;
        case 1: {
          auto body = RandomQuery(rng, rel, 3, {"x"},
                                  /*allow_negation=*/true);
          std::set<std::string> free = body->FreeVariables();
          if (free.empty()) {
            query = std::move(body);
          } else {
            std::vector<std::string> bound(free.begin(), free.end());
            query = rng.Bernoulli(0.5)
                        ? Query::Exists(std::move(bound), std::move(body))
                        : Query::ForAll(std::move(bound), std::move(body));
          }
          break;
        }
        default:
          query = RandomQuery(rng, rel, 3, {"x", "y"},
                              /*allow_negation=*/true);
          break;
      }

      if (query->IsClosed()) {
        auto reference = PlannedConsistentAnswer(snapshot->problem(),
                                                 priority, family, *query);
        ASSERT_TRUE(reference.ok())
            << reference.status().ToString() << " for " << query->ToString();
        bool hit = false;
        auto cold = session.Ask(*query, priority, family, {}, nullptr, &hit);
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        EXPECT_EQ(*cold, *reference)
            << "trial " << trial << " family " << RepairFamilyName(family)
            << " query " << query->ToString();
        auto warm = session.Ask(*query, priority, family, {}, nullptr, &hit);
        ASSERT_TRUE(warm.ok());
        EXPECT_TRUE(hit);
        EXPECT_EQ(*warm, *reference) << query->ToString();
        ++verdicts_compared;
      } else {
        auto reference = PlannedConsistentAnswers(snapshot->problem(),
                                                  priority, family, *query);
        ASSERT_TRUE(reference.ok())
            << reference.status().ToString() << " for " << query->ToString();
        // No cold-miss assertion here: random queries can repeat within a
        // trial, making the "cold" call a legitimate hit. Bit-for-bit
        // equality is the property under test.
        bool hit = false;
        auto cold =
            session.Answers(*query, priority, family, {}, nullptr, &hit);
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        EXPECT_EQ(cold->variables, reference->variables) << query->ToString();
        EXPECT_EQ(cold->rows, reference->rows)
            << "trial " << trial << " family " << RepairFamilyName(family)
            << " query " << query->ToString();
        auto warm =
            session.Answers(*query, priority, family, {}, nullptr, &hit);
        ASSERT_TRUE(warm.ok());
        EXPECT_TRUE(hit);
        EXPECT_EQ(warm->variables, reference->variables);
        EXPECT_EQ(warm->rows, reference->rows) << query->ToString();
        ++answer_sets_compared;
      }
    }

    // Aggregates ride the session facade too (uncached path).
    auto fast_count =
        session.Aggregate("R", "", AggregateFunction::kCount, priority,
                          family, {});
    auto reference_count =
        PlannedAggregateRange(snapshot->problem(), priority, family, "R", "",
                              AggregateFunction::kCount);
    ASSERT_TRUE(fast_count.ok()) << fast_count.status().ToString();
    ASSERT_TRUE(reference_count.ok());
    EXPECT_EQ(fast_count->lo, reference_count->lo) << "trial " << trial;
    EXPECT_EQ(fast_count->hi, reference_count->hi) << "trial " << trial;
  }
  EXPECT_EQ(verdicts_compared + answer_sets_compared, 36);
  EXPECT_GE(verdicts_compared, 12);
  EXPECT_GE(answer_sets_compared, 6);
}

}  // namespace
}  // namespace prefrep
