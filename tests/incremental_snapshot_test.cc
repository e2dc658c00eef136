// The incremental-maintenance equivalence suite: Snapshot::Derive must be
// bit-for-bit indistinguishable from Snapshot::Create on the post-delta
// database — same conflict graph, same component decomposition, same
// repair enumerations, same verdicts and certain-answer sets across all
// five families, priority kinds and serial/sharded execution. Also pins
// the derived-session cache seeding contract (seeded answers == cold
// answers, surviving entries really hit) and Derive's cancellation
// cleanliness.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/exec_context.h"
#include "base/random.h"
#include "query/parser.h"
#include "relational/delta.h"
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

// A random delta over a MakeComponentsInstance / MakeRandomInstance
// database: each base tuple deleted with probability `delete_p`, plus up
// to `insert_attempts` random R(K, V, W)-shaped inserts reusing small
// numeric values so some land in existing key groups (fresh conflicts) and
// duplicates get rejected naturally.
DatabaseDelta RandomDelta(Rng& rng, const Database& db, double delete_p,
                          int insert_attempts, int domain) {
  DatabaseDelta delta(&db);
  for (TupleId id = 0; id < db.tuple_count(); ++id) {
    if (rng.UniformDouble() < delete_p) CHECK(delta.Delete(id).ok());
  }
  const Schema& schema = db.relations()[0].schema();
  for (int i = 0; i < insert_attempts; ++i) {
    std::vector<Value> values;
    values.reserve(schema.arity());
    for (int a = 0; a < schema.arity(); ++a) {
      values.emplace_back(Value::Number(rng.UniformInt(domain)));
    }
    (void)delta.Insert(schema.relation_name(), Tuple(std::move(values)));
  }
  return delta;
}

// Structural equality of two snapshots over the same logical database
// version: databases, conflict graphs, decompositions (including each
// component's induced local graph) must agree exactly.
void ExpectSameSnapshot(const Snapshot& derived, const Snapshot& rebuilt) {
  // Database.
  ASSERT_EQ(derived.db().tuple_count(), rebuilt.db().tuple_count());
  for (TupleId id = 0; id < derived.db().tuple_count(); ++id) {
    ASSERT_EQ(derived.db().RelationIndexOf(id), rebuilt.db().RelationIndexOf(id));
    ASSERT_EQ(derived.db().RowOf(id), rebuilt.db().RowOf(id));
    ASSERT_TRUE(derived.db().TupleOf(id) == rebuilt.db().TupleOf(id));
  }
  // Conflict graph: the edge list is normalized and sorted in both, so
  // equality really is bit-for-bit. The adjacency rows are compared
  // separately because DeriveFrom assembles them from shared parent rows
  // plus fresh rows — the edge list alone would not catch a wrongly
  // shared (stale) row. Compared as neighbor SETS, not raw bitsets: a
  // shared row of a derived graph may be RAGGED (sized to the parent
  // universe); ToVector also flags any stray bit outside the child
  // universe, which would have no counterpart in the rebuilt row.
  EXPECT_EQ(derived.graph().edges(), rebuilt.graph().edges());
  ASSERT_EQ(derived.graph().vertex_count(), rebuilt.graph().vertex_count());
  for (int v = 0; v < derived.graph().vertex_count(); ++v) {
    EXPECT_EQ(derived.graph().Neighbors(v).ToVector(),
              rebuilt.graph().Neighbors(v).ToVector())
        << "adjacency mismatch at vertex " << v;
  }
  // Decomposition.
  const ComponentDecomposition& a = derived.decomposition();
  const ComponentDecomposition& b = rebuilt.decomposition();
  EXPECT_TRUE(a.isolated() == b.isolated());
  ASSERT_EQ(a.components().size(), b.components().size());
  for (size_t c = 0; c < a.components().size(); ++c) {
    EXPECT_EQ(a.components()[c].vertices, b.components()[c].vertices);
    EXPECT_EQ(a.components()[c].graph.edges(), b.components()[c].graph.edges());
  }
}

// ------------------------------------------------ structural identity --

TEST(SnapshotDeriveTest, RejectsDeltaStagedAgainstForeignDatabase) {
  Rng rng(1);
  GeneratedInstance inst = MakeComponentsInstance(rng, {3, 2});
  std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
  // Staged against the generator's database, not the snapshot's copy.
  DatabaseDelta delta(inst.db.get());
  auto derived = Snapshot::Derive(base, delta);
  ASSERT_FALSE(derived.ok());
  EXPECT_EQ(derived.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotDeriveTest, EmptyDeltaReproducesBase) {
  Rng rng(2);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 3, 2});
  std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
  DatabaseDelta delta(&base->db());
  auto derived = Snapshot::Derive(base, delta);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  ExpectSameSnapshot(**derived, *base);
  const SnapshotDeltaInfo* info = (*derived)->delta_info();
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->parent_id, base->id());
  EXPECT_TRUE(info->domain_preserved);
  EXPECT_EQ(info->rebuilt_components, 0);
  EXPECT_TRUE(info->dirty_parent_components.empty());
  EXPECT_EQ(info->first_shifted_id, base->db().tuple_count());
}

TEST(SnapshotDeriveTest, UntouchedRelationsShareStorageWithParent) {
  // Mgr scenario has one relation; build a two-relation database by hand.
  Database db;
  auto r = Schema::Create("R", {Attribute{"K", ValueType::kNumber},
                                Attribute{"V", ValueType::kNumber}});
  auto s = Schema::Create("S", {Attribute{"A", ValueType::kNumber}});
  CHECK(r.ok() && s.ok());
  CHECK(db.AddRelation(*r).ok());
  CHECK(db.AddRelation(*s).ok());
  for (int i = 0; i < 3; ++i) {
    CHECK(db.Insert("R", Tuple::Of(Value::Number(0), Value::Number(i))).ok());
    CHECK(db.Insert("S", Tuple::Of(Value::Number(i))).ok());
  }
  auto fd = FunctionalDependency::CreateByName(*r, {"K"}, {"V"});
  ASSERT_TRUE(fd.ok());
  auto base = Snapshot::Create(std::move(db), {*fd});
  ASSERT_TRUE(base.ok());

  DatabaseDelta delta(&(*base)->db());
  ASSERT_TRUE(delta.Insert("S", Tuple::Of(Value::Number(3))).ok());
  auto derived = Snapshot::Derive(*base, delta);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  // R untouched by the delta: shares storage. S rebuilt.
  EXPECT_TRUE((*derived)->db().relations()[0].SharesStorageWith(
      (*base)->db().relations()[0]));
  EXPECT_FALSE((*derived)->db().relations()[1].SharesStorageWith(
      (*base)->db().relations()[1]));
  // The delta only touched conflict-free S: every component carried.
  const SnapshotDeltaInfo* info = (*derived)->delta_info();
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->rebuilt_components, 0);
  EXPECT_EQ(info->carried_components,
            static_cast<int>((*base)->decomposition().components().size()));
  EXPECT_NE((*derived)->Describe().find("delta from #"), std::string::npos);
}

TEST(SnapshotDeriveTest, EveryReaderSharesTheGraphsOneDecomposition) {
  Rng rng(1920);
  GeneratedInstance inst = MakeComponentsInstance(rng, {4, 1, 3, 5, 2, 4});
  std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
  EXPECT_EQ(&base->decomposition(), &base->graph().decomposition());
  EXPECT_EQ(&base->problem().graph().decomposition(), &base->decomposition());
  // A local delta: one deleted tuple dirties at most its own component,
  // so the successor carries the others over.
  DatabaseDelta delta(&base->db());
  ASSERT_TRUE(delta.Delete(base->db().tuple_count() - 1).ok());
  auto derived = Snapshot::Derive(base, delta);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  const ComponentDecomposition& seeded = (*derived)->graph().decomposition();
  EXPECT_EQ(&(*derived)->decomposition(), &seeded);
  EXPECT_GT(seeded.carried_component_count(), 0);
  // A copy of the graph reads the same decomposition.
  const ConflictGraph copy = (*derived)->graph();
  EXPECT_EQ(&copy.decomposition(), &seeded);
  // The walk over the installed decomposition lists every family in the
  // same sequence as a snapshot created from the post-delta database.
  auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  Priority priority = RandomRankingPriority(rng, (*rebuilt)->graph(), 0.7);
  for (RepairFamily family : kAllFamilies) {
    auto got = PreferredRepairs((*derived)->graph(), priority, family);
    auto want = PreferredRepairs((*rebuilt)->graph(), priority, family);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(*got, *want) << RepairFamilyName(family);
  }
}

TEST(SnapshotDeriveTest, RandomizedDeriveMatchesCreateStructurally) {
  Rng rng(20260808);
  for (int round = 0; round < 20; ++round) {
    GeneratedInstance inst =
        (round % 2 == 0)
            ? MakeComponentsInstance(rng, /*components=*/5, /*min_size=*/1,
                                     /*max_size=*/5)
            : MakeRandomInstance(rng, /*tuple_target=*/30, /*arity=*/3,
                                 /*domain_size=*/6, /*fd_count=*/2);
    std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
    DatabaseDelta delta =
        RandomDelta(rng, base->db(), /*delete_p=*/0.15, /*insert_attempts=*/6,
                    /*domain=*/8);
    auto derived = Snapshot::Derive(base, delta);
    ASSERT_TRUE(derived.ok()) << derived.status().ToString();
    auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ExpectSameSnapshot(**derived, **rebuilt);
    // Reuse accounting is consistent.
    const SnapshotDeltaInfo* info = (*derived)->delta_info();
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->carried_components + info->rebuilt_components,
              static_cast<int>((*derived)->decomposition().components().size()));
  }
}

TEST(SnapshotDeriveTest, BalancedTailDeltaSharesIdentityAdjacency) {
  // Replace-style deltas (equal delete/insert counts) confined to the last
  // relation keep the tuple universe size fixed, so DeriveFrom can share
  // the adjacency bitsets of every untouched tuple with the parent graph.
  // Randomized rounds: delete a random-size tail of the last relation,
  // insert the same number of fresh tuples into it, and check (a) the
  // derived graph is bit-for-bit the rebuilt graph and (b) every vertex
  // below the delta's reach with an unchanged neighborhood shares its
  // bitset with the parent.
  Rng rng(20260809);
  for (int round = 0; round < 8; ++round) {
    GeneratedInstance inst = MakeMultiRelationComponentsInstance(
        rng, /*relations=*/3, /*groups_per_relation=*/4, /*min_size=*/2,
        /*max_size=*/5);
    std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
    const int n = base->db().tuple_count();
    const int ops = 1 + static_cast<int>(rng.UniformInt(4));
    DatabaseDelta delta(&base->db());
    for (int i = 0; i < ops; ++i) {
      ASSERT_TRUE(delta.Delete(static_cast<TupleId>(n - 1 - i)).ok());
    }
    for (int i = 0; i < ops; ++i) {
      ASSERT_TRUE(delta
                      .Insert("R2", Tuple::Of(Value::Number(rng.UniformInt(4)),
                                              Value::Number(0),
                                              Value::Number(1000 + i)))
                      .ok());
    }
    auto derived = Snapshot::Derive(base, delta);
    ASSERT_TRUE(derived.ok()) << derived.status().ToString();
    auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ExpectSameSnapshot(**derived, **rebuilt);

    // Sharing engaged: same universe size, so every identity vertex whose
    // neighborhood survived untouched reuses the parent's heap bitset.
    ASSERT_EQ((*derived)->graph().vertex_count(), n);
    const int first_shifted = (*derived)->delta_info()->first_shifted_id;
    EXPECT_EQ(first_shifted, n - ops);
    int shared = 0;
    for (int v = 0; v < first_shifted; ++v) {
      if ((*derived)->graph().SharesAdjacencyWith(base->graph(), v)) {
        ++shared;
      } else {
        // A non-shared identity vertex must be genuinely dirty: adjacent
        // (in either version) to the delta's reach.
        EXPECT_TRUE(
            base->graph().Neighbors(v) != (*derived)->graph().Neighbors(v) ||
            [&] {
              for (int w = first_shifted; w < n; ++w) {
                if (base->graph().HasEdge(v, w) ||
                    (*derived)->graph().HasEdge(v, w)) {
                  return true;
                }
              }
              return false;
            }())
            << "vertex " << v << " rebuilt without cause";
      }
    }
    // The two untouched relations alone put most vertices in the shared
    // region.
    EXPECT_GT(shared, first_shifted / 2);
  }
}

// Number of identity-region vertices ([0, first_shifted)) whose adjacency
// bitset is the parent's heap object, plus a per-vertex audit that every
// NON-shared identity vertex is genuinely dirty (its neighborhood differs
// between the versions, comparing as sets since rows may be ragged).
int CountSharedIdentityRows(const Snapshot& derived, const Snapshot& base,
                            int first_shifted) {
  int shared = 0;
  for (int v = 0; v < first_shifted; ++v) {
    if (derived.graph().SharesAdjacencyWith(base.graph(), v)) {
      ++shared;
    } else {
      EXPECT_NE(base.graph().Neighbors(v).ToVector(),
                derived.graph().Neighbors(v).ToVector())
          << "vertex " << v << " rebuilt without cause";
    }
  }
  return shared;
}

TEST(SnapshotDeriveTest, InsertOnlyDeltaSharesCleanAdjacency) {
  // Insert-only deltas grow the universe; every pre-existing id is
  // identity-mapped (first_shifted == old count), so all clean rows must
  // be shared with the parent and read zero-extended over the larger
  // child universe.
  Rng rng(20260810);
  for (int round = 0; round < 8; ++round) {
    GeneratedInstance inst = MakeMultiRelationComponentsInstance(
        rng, /*relations=*/3, /*groups_per_relation=*/4, /*min_size=*/2,
        /*max_size=*/5);
    std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
    const int n = base->db().tuple_count();
    const int ops = 1 + static_cast<int>(rng.UniformInt(5));
    DatabaseDelta delta(&base->db());
    for (int i = 0; i < ops; ++i) {
      ASSERT_TRUE(delta
                      .Insert("R1", Tuple::Of(Value::Number(rng.UniformInt(4)),
                                              Value::Number(0),
                                              Value::Number(2000 + i)))
                      .ok());
    }
    auto derived = Snapshot::Derive(base, delta);
    ASSERT_TRUE(derived.ok()) << derived.status().ToString();
    auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ExpectSameSnapshot(**derived, **rebuilt);

    ASSERT_EQ((*derived)->graph().vertex_count(), n + ops);
    const int first_shifted = (*derived)->delta_info()->first_shifted_id;
    EXPECT_EQ(first_shifted, n);  // nothing deleted, nothing renumbered
    const int shared = CountSharedIdentityRows(**derived, *base, first_shifted);
    // The inserts land in one relation's key groups; the two untouched
    // relations alone keep a clean majority.
    EXPECT_GT(shared, n / 2);
  }
}

TEST(SnapshotDeriveTest, DeleteOnlyTailDeltaSharesCleanAdjacency) {
  // Tail deletions shrink the universe; ids below the first deleted id
  // are identity-mapped, and their clean rows — sized to the LARGER
  // parent universe — are shared and read truncated.
  Rng rng(20260811);
  for (int round = 0; round < 8; ++round) {
    GeneratedInstance inst = MakeMultiRelationComponentsInstance(
        rng, /*relations=*/3, /*groups_per_relation=*/4, /*min_size=*/2,
        /*max_size=*/5);
    std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
    const int n = base->db().tuple_count();
    const int ops = 1 + static_cast<int>(rng.UniformInt(5));
    DatabaseDelta delta(&base->db());
    for (int i = 0; i < ops; ++i) {
      ASSERT_TRUE(delta.Delete(static_cast<TupleId>(n - 1 - i)).ok());
    }
    auto derived = Snapshot::Derive(base, delta);
    ASSERT_TRUE(derived.ok()) << derived.status().ToString();
    auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ExpectSameSnapshot(**derived, **rebuilt);

    ASSERT_EQ((*derived)->graph().vertex_count(), n - ops);
    const int first_shifted = (*derived)->delta_info()->first_shifted_id;
    EXPECT_EQ(first_shifted, n - ops);
    const int shared = CountSharedIdentityRows(**derived, *base, first_shifted);
    EXPECT_GT(shared, first_shifted / 2);
  }
}

TEST(SnapshotDeriveTest, DeleteOnlyScatteredDeltaSharesPrefixAdjacency) {
  // Scattered deletions renumber everything past the FIRST deleted id, so
  // sharing is confined to the prefix before it — keep the deletions in
  // the upper half to make that prefix (and its sharing) non-trivial, and
  // let the equivalence check cover the renumbered remainder.
  Rng rng(20260812);
  for (int round = 0; round < 8; ++round) {
    GeneratedInstance inst = MakeMultiRelationComponentsInstance(
        rng, /*relations=*/3, /*groups_per_relation=*/4, /*min_size=*/2,
        /*max_size=*/5);
    std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
    const int n = base->db().tuple_count();
    std::vector<TupleId> victims;
    for (TupleId id = n / 2; id < n; ++id) {
      if (rng.UniformDouble() < 0.2) victims.push_back(id);
    }
    if (victims.empty()) victims.push_back(n / 2 + 1);
    DatabaseDelta delta(&base->db());
    for (TupleId id : victims) ASSERT_TRUE(delta.Delete(id).ok());
    auto derived = Snapshot::Derive(base, delta);
    ASSERT_TRUE(derived.ok()) << derived.status().ToString();
    auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ExpectSameSnapshot(**derived, **rebuilt);

    const int first_shifted = (*derived)->delta_info()->first_shifted_id;
    EXPECT_EQ(first_shifted, static_cast<int>(victims.front()));
    const int shared = CountSharedIdentityRows(**derived, *base, first_shifted);
    EXPECT_GT(shared, 0);
  }
}

TEST(SnapshotDeriveTest, SkewedMixedDeltaSharesCleanAdjacency) {
  // Unequal delete/insert counts (the shapes PR 9 rebuilt from scratch):
  // a couple of upper-half deletions plus a larger batch of inserts.
  Rng rng(20260813);
  for (int round = 0; round < 8; ++round) {
    GeneratedInstance inst = MakeMultiRelationComponentsInstance(
        rng, /*relations=*/3, /*groups_per_relation=*/4, /*min_size=*/2,
        /*max_size=*/5);
    std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
    const int n = base->db().tuple_count();
    DatabaseDelta delta(&base->db());
    const int deletes = 1 + static_cast<int>(rng.UniformInt(2));
    for (int i = 0; i < deletes; ++i) {
      ASSERT_TRUE(delta.Delete(static_cast<TupleId>(n - 1 - 2 * i)).ok());
    }
    const int inserts = deletes + 2 + static_cast<int>(rng.UniformInt(3));
    for (int i = 0; i < inserts; ++i) {
      ASSERT_TRUE(delta
                      .Insert("R0", Tuple::Of(Value::Number(rng.UniformInt(4)),
                                              Value::Number(0),
                                              Value::Number(3000 + i)))
                      .ok());
    }
    ASSERT_NE(delta.insert_count(), delta.delete_count());
    auto derived = Snapshot::Derive(base, delta);
    ASSERT_TRUE(derived.ok()) << derived.status().ToString();
    auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    ExpectSameSnapshot(**derived, **rebuilt);

    const int first_shifted = (*derived)->delta_info()->first_shifted_id;
    ASSERT_GT(first_shifted, 0);
    EXPECT_GT(CountSharedIdentityRows(**derived, *base, first_shifted), 0);
  }
}

TEST(SnapshotDeriveTest, FreshEdgeMergingTwoComponentsKeepsCountsSane) {
  // One inserted tuple conflicting into two distinct parent components
  // (via two different FDs) merges them: the child has FEWER non-trivial
  // components than the parent lost. rebuilt_components must count the
  // child components actually BFS-built (here: the single merged one),
  // never a negative set difference.
  Database db;
  auto r = Schema::Create("R", {Attribute{"A", ValueType::kNumber},
                                Attribute{"B", ValueType::kNumber},
                                Attribute{"C", ValueType::kNumber}});
  CHECK(r.ok());
  CHECK(db.AddRelation(*r).ok());
  // Component X: same A=1, differing B (FD A->B).
  CHECK(db.Insert("R", Tuple::Of(Value::Number(1), Value::Number(0),
                                 Value::Number(7))).ok());
  CHECK(db.Insert("R", Tuple::Of(Value::Number(1), Value::Number(1),
                                 Value::Number(8))).ok());
  // Component Y: same C=9, differing B (FD C->B).
  CHECK(db.Insert("R", Tuple::Of(Value::Number(2), Value::Number(0),
                                 Value::Number(9))).ok());
  CHECK(db.Insert("R", Tuple::Of(Value::Number(3), Value::Number(1),
                                 Value::Number(9))).ok());
  auto fd_ab = FunctionalDependency::CreateByName(*r, {"A"}, {"B"});
  auto fd_cb = FunctionalDependency::CreateByName(*r, {"C"}, {"B"});
  ASSERT_TRUE(fd_ab.ok() && fd_cb.ok());
  auto base = Snapshot::Create(std::move(db), {*fd_ab, *fd_cb});
  ASSERT_TRUE(base.ok());
  ASSERT_EQ((*base)->decomposition().components().size(), 2u);

  // Bridges X (A=1, B=2) and Y (C=9, B=2).
  DatabaseDelta delta(&(*base)->db());
  ASSERT_TRUE(delta.Insert("R", Tuple::Of(Value::Number(1), Value::Number(2),
                                          Value::Number(9))).ok());
  auto derived = Snapshot::Derive(*base, delta);
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), (*base)->fds());
  ASSERT_TRUE(rebuilt.ok());
  ExpectSameSnapshot(**derived, **rebuilt);

  ASSERT_EQ((*derived)->decomposition().components().size(), 1u);
  EXPECT_EQ((*derived)->decomposition().components()[0].vertices.size(), 5u);
  const SnapshotDeltaInfo* info = (*derived)->delta_info();
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->rebuilt_components, 1);
  EXPECT_EQ(info->carried_components, 0);
  EXPECT_GE(info->rebuilt_components, 0);
  EXPECT_EQ(info->dirty_parent_components.size(), 2u);
  // ToString renders the merge as 1/1 components rebuilt, never negative.
  EXPECT_NE(info->ToString().find("1/1 components rebuilt"),
            std::string::npos);
}

// ------------------------------------------- answer-level equivalence --

TEST(SnapshotDeriveTest, RandomizedAnswersMatchAcrossFamiliesAndPriorities) {
  Rng rng(7);
  std::vector<std::unique_ptr<Query>> queries;
  queries.push_back(MustParse("exists x, y, z . R(x, y, z)"));
  queries.push_back(MustParse("exists x, z . R(x, 0, z)"));
  queries.push_back(MustParse("R(x, y, z)"));  // open

  for (int round = 0; round < 4; ++round) {
    GeneratedInstance inst =
        MakeComponentsInstance(rng, /*components=*/4, /*min_size=*/2,
                               /*max_size=*/4);
    std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
    DatabaseDelta delta =
        RandomDelta(rng, base->db(), /*delete_p=*/0.2, /*insert_attempts=*/4,
                    /*domain=*/6);
    auto derived_or = Snapshot::Derive(base, delta);
    ASSERT_TRUE(derived_or.ok()) << derived_or.status().ToString();
    auto rebuilt_or = Snapshot::Create(*delta.ApplyNaive(), base->fds());
    ASSERT_TRUE(rebuilt_or.ok());
    Session derived(*derived_or);
    Session rebuilt(*rebuilt_or);

    std::vector<Priority> priorities;
    priorities.push_back(Priority::Empty((*derived_or)->graph()));
    priorities.push_back(
        RandomRankingPriority(rng, (*derived_or)->graph(), 0.6));
    priorities.push_back(RandomDagPriority(rng, (*derived_or)->graph(), 0.6));

    for (const Priority& priority : priorities) {
      for (RepairFamily family : kAllFamilies) {
        // Repair enumeration, serial vs sharded.
        for (int threads : {1, 4}) {
          EvalOptions options;
          options.threads = threads;
          auto from_derived = derived.Repairs(priority, family, options);
          auto from_rebuilt = rebuilt.Repairs(priority, family, options);
          ASSERT_TRUE(from_derived.ok() && from_rebuilt.ok());
          EXPECT_EQ(*from_derived, *from_rebuilt);
        }
        // Verdicts and certain answers.
        for (const auto& query : queries) {
          if (query->FreeVariables().empty()) {
            auto a = derived.Ask(*query, priority, family, {});
            auto b = rebuilt.Ask(*query, priority, family, {});
            ASSERT_TRUE(a.ok() && b.ok());
            EXPECT_EQ(*a, *b);
          } else {
            auto a = derived.Answers(*query, priority, family, {});
            auto b = rebuilt.Answers(*query, priority, family, {});
            ASSERT_TRUE(a.ok() && b.ok());
            EXPECT_EQ(a->variables, b->variables);
            EXPECT_EQ(a->rows, b->rows);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------- session seeding --

// Two-relation fixture for seeding tests: conflicts live in R, S is a
// spectator the delta can touch without invalidating R-only footprints.
struct SeedFixture {
  std::shared_ptr<const Snapshot> base;
};

SeedFixture MakeSeedFixture() {
  Database db;
  auto r = Schema::Create("R", {Attribute{"K", ValueType::kNumber},
                                Attribute{"V", ValueType::kNumber}});
  auto s = Schema::Create("S", {Attribute{"A", ValueType::kNumber},
                                Attribute{"B", ValueType::kNumber}});
  CHECK(r.ok() && s.ok());
  CHECK(db.AddRelation(*r).ok());
  CHECK(db.AddRelation(*s).ok());
  // Three key groups of two conflicting tuples each.
  for (int k = 0; k < 3; ++k) {
    CHECK(db.Insert("R", Tuple::Of(Value::Number(k), Value::Number(0))).ok());
    CHECK(db.Insert("R", Tuple::Of(Value::Number(k), Value::Number(1))).ok());
  }
  for (int i = 0; i < 3; ++i) {
    CHECK(db.Insert("S", Tuple::Of(Value::Number(i), Value::Number(i))).ok());
  }
  auto fd = FunctionalDependency::CreateByName(*r, {"K"}, {"V"});
  CHECK(fd.ok());
  auto base = Snapshot::Create(std::move(db), {*fd});
  CHECK(base.ok());
  return SeedFixture{*base};
}

TEST(SessionSeedingTest, ResultsSurviveSpectatorRelationDelta) {
  SeedFixture fx = MakeSeedFixture();
  Session parent(fx.base);
  Priority empty = Priority::Empty(fx.base->graph());
  auto closed = MustParse("exists x, y . R(x, y)");
  auto open = MustParse("R(x, y)");
  auto parent_verdict = parent.Ask(*closed, empty, RepairFamily::kAll, {});
  auto parent_answers = parent.Answers(*open, empty, RepairFamily::kAll, {});
  ASSERT_TRUE(parent_verdict.ok() && parent_answers.ok());

  // Delta touches only S, with a fresh combination of already-resident
  // values: ids stable (appends only), domain preserved, R untouched.
  DatabaseDelta delta(&fx.base->db());
  ASSERT_TRUE(
      delta.Insert("S", Tuple::Of(Value::Number(0), Value::Number(1))).ok());
  auto derived_or = Snapshot::Derive(fx.base, delta);
  ASSERT_TRUE(derived_or.ok()) << derived_or.status().ToString();

  Session seeded(*derived_or, parent);
  SessionCacheStats stats = seeded.cache_stats();
  EXPECT_GE(stats.seeded_plans, 2u);
  EXPECT_EQ(stats.seeded_results, 2u);
  EXPECT_EQ(stats.seed_dropped, 0u);

  // The seeded entries really hit, and agree with a cold session.
  Session cold(*derived_or);
  bool hit = false;
  auto seeded_verdict =
      seeded.Ask(*closed, empty, RepairFamily::kAll, {}, nullptr, &hit);
  ASSERT_TRUE(seeded_verdict.ok());
  EXPECT_TRUE(hit);
  auto cold_verdict = cold.Ask(*closed, empty, RepairFamily::kAll, {});
  ASSERT_TRUE(cold_verdict.ok());
  EXPECT_EQ(*seeded_verdict, *cold_verdict);
  EXPECT_EQ(*seeded_verdict, *parent_verdict);

  auto seeded_answers =
      seeded.Answers(*open, empty, RepairFamily::kAll, {}, nullptr, &hit);
  ASSERT_TRUE(seeded_answers.ok());
  EXPECT_TRUE(hit);
  auto cold_answers = cold.Answers(*open, empty, RepairFamily::kAll, {});
  ASSERT_TRUE(cold_answers.ok());
  EXPECT_EQ(seeded_answers->rows, cold_answers->rows);
  EXPECT_EQ(stats.result_hits, 0u);  // stats snapshot was taken before
  EXPECT_GE(seeded.cache_stats().result_hits, 2u);
}

TEST(SessionSeedingTest, ResultsDropWhenFootprintRelationTouched) {
  SeedFixture fx = MakeSeedFixture();
  Session parent(fx.base);
  Priority empty = Priority::Empty(fx.base->graph());
  auto closed = MustParse("exists x, y . R(x, y)");
  ASSERT_TRUE(parent.Ask(*closed, empty, RepairFamily::kAll, {}).ok());

  // Another tuple in R's key group 0: R's footprint is invalidated.
  DatabaseDelta delta(&fx.base->db());
  ASSERT_TRUE(
      delta.Insert("R", Tuple::Of(Value::Number(0), Value::Number(2))).ok());
  auto derived_or = Snapshot::Derive(fx.base, delta);
  ASSERT_TRUE(derived_or.ok());

  Session seeded(*derived_or, parent);
  SessionCacheStats stats = seeded.cache_stats();
  EXPECT_EQ(stats.seeded_results, 0u);
  EXPECT_GE(stats.seed_dropped, 1u);
  // Still answers correctly, just cold.
  bool hit = true;
  auto verdict =
      seeded.Ask(*closed, empty, RepairFamily::kAll, {}, nullptr, &hit);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(hit);
  Session cold(*derived_or);
  auto cold_verdict = cold.Ask(*closed, empty, RepairFamily::kAll, {});
  ASSERT_TRUE(cold_verdict.ok());
  EXPECT_EQ(*verdict, *cold_verdict);
}

TEST(SessionSeedingTest, ResultsDropWhenDomainChanges) {
  SeedFixture fx = MakeSeedFixture();
  Session parent(fx.base);
  Priority empty = Priority::Empty(fx.base->graph());
  auto closed = MustParse("exists x, y . R(x, y)");
  ASSERT_TRUE(parent.Ask(*closed, empty, RepairFamily::kAll, {}).ok());

  // A brand-new value in spectator S: R untouched, but quantifier domains
  // range over the whole database's active domain, so nothing survives.
  DatabaseDelta delta(&fx.base->db());
  ASSERT_TRUE(
      delta.Insert("S", Tuple::Of(Value::Number(999), Value::Number(0))).ok());
  auto derived_or = Snapshot::Derive(fx.base, delta);
  ASSERT_TRUE(derived_or.ok());
  ASSERT_FALSE((*derived_or)->delta_info()->domain_preserved);

  Session seeded(*derived_or, parent);
  EXPECT_EQ(seeded.cache_stats().seeded_results, 0u);
  EXPECT_GE(seeded.cache_stats().seed_dropped, 1u);
}

TEST(SessionSeedingTest, RandomizedSeededAgreesWithCold) {
  Rng rng(31);
  for (int round = 0; round < 6; ++round) {
    GeneratedInstance inst =
        MakeComponentsInstance(rng, /*components=*/4, /*min_size=*/2,
                               /*max_size=*/4);
    std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
    Session parent(base);
    std::vector<std::unique_ptr<Query>> queries;
    queries.push_back(MustParse("exists x, y, z . R(x, y, z)"));
    queries.push_back(MustParse("exists x, z . R(x, 1, z)"));
    queries.push_back(MustParse("R(x, y, z)"));
    Priority empty = Priority::Empty(base->graph());
    for (const auto& query : queries) {
      for (RepairFamily family : kAllFamilies) {
        if (query->FreeVariables().empty()) {
          ASSERT_TRUE(parent.Ask(*query, empty, family, {}).ok());
        } else {
          ASSERT_TRUE(parent.Answers(*query, empty, family, {}).ok());
        }
      }
    }
    DatabaseDelta delta =
        RandomDelta(rng, base->db(), /*delete_p=*/0.15, /*insert_attempts=*/3,
                    /*domain=*/6);
    auto derived_or = Snapshot::Derive(base, delta);
    ASSERT_TRUE(derived_or.ok());
    Session seeded(*derived_or, parent);
    Session cold(*derived_or);
    for (const auto& query : queries) {
      for (RepairFamily family : kAllFamilies) {
        if (query->FreeVariables().empty()) {
          auto a = seeded.Ask(*query, empty, family, {});
          auto b = cold.Ask(*query, empty, family, {});
          ASSERT_TRUE(a.ok() && b.ok());
          EXPECT_EQ(*a, *b);
        } else {
          auto a = seeded.Answers(*query, empty, family, {});
          auto b = cold.Answers(*query, empty, family, {});
          ASSERT_TRUE(a.ok() && b.ok());
          EXPECT_EQ(a->variables, b->variables);
          EXPECT_EQ(a->rows, b->rows);
        }
      }
    }
  }
}

// -------------------------------------------------------- cancellation --

TEST(SnapshotDeriveTest, CancelledDeriveIsCleanAndRerunnable) {
  Rng rng(47);
  GeneratedInstance inst = MakeComponentsInstance(rng, {5, 4, 3, 2});
  std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
  const std::string base_before = base->Describe();
  DatabaseDelta delta =
      RandomDelta(rng, base->db(), /*delete_p=*/0.25, /*insert_attempts=*/5,
                  /*domain=*/8);
  auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
  ASSERT_TRUE(rebuilt.ok());

  // Cancel at every poll point until a run survives to completion.
  bool completed = false;
  for (int polls = 1; polls < 64 && !completed; ++polls) {
    ExecutionContext context;
    context.CancelAfterPolls(polls);
    auto derived = Snapshot::Derive(base, delta, &context);
    if (derived.ok()) {
      completed = true;
      ExpectSameSnapshot(**derived, **rebuilt);
    } else {
      EXPECT_EQ(derived.status().code(), StatusCode::kCancelled);
    }
    // The parent is untouched either way.
    EXPECT_EQ(base->Describe(), base_before);
  }
  EXPECT_TRUE(completed);
  // A rerun with no interference is bit-for-bit identical.
  auto rerun = Snapshot::Derive(base, delta);
  ASSERT_TRUE(rerun.ok());
  ExpectSameSnapshot(**rerun, **rebuilt);
}

TEST(SnapshotDeriveTest, CancelledUnbalancedDeriveIsCleanAndRerunnable) {
  // Same poll-point fuzz as above, but through the ragged adjacency
  // sharing path: insert-only (universe grows) and delete-only tail
  // (universe shrinks) deltas.
  Rng rng(53);
  GeneratedInstance inst = MakeMultiRelationComponentsInstance(
      rng, /*relations=*/3, /*groups_per_relation=*/4, /*min_size=*/2,
      /*max_size=*/5);
  std::shared_ptr<const Snapshot> base = MustSnapshot(inst);
  const int n = base->db().tuple_count();
  const std::string base_before = base->Describe();

  std::vector<DatabaseDelta> deltas;
  DatabaseDelta insert_only(&base->db());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(insert_only
                    .Insert("R1", Tuple::Of(Value::Number(i % 4),
                                            Value::Number(0),
                                            Value::Number(4000 + i)))
                    .ok());
  }
  deltas.push_back(std::move(insert_only));
  DatabaseDelta delete_only(&base->db());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(delete_only.Delete(static_cast<TupleId>(n - 1 - i)).ok());
  }
  deltas.push_back(std::move(delete_only));

  for (const DatabaseDelta& delta : deltas) {
    ASSERT_NE(delta.insert_count(), delta.delete_count());
    auto rebuilt = Snapshot::Create(*delta.ApplyNaive(), base->fds());
    ASSERT_TRUE(rebuilt.ok());
    bool completed = false;
    for (int polls = 1; polls < 64 && !completed; ++polls) {
      ExecutionContext context;
      context.CancelAfterPolls(polls);
      auto derived = Snapshot::Derive(base, delta, &context);
      if (derived.ok()) {
        completed = true;
        ExpectSameSnapshot(**derived, **rebuilt);
      } else {
        EXPECT_EQ(derived.status().code(), StatusCode::kCancelled);
      }
      EXPECT_EQ(base->Describe(), base_before);
    }
    EXPECT_TRUE(completed);
  }
}

}  // namespace
}  // namespace prefrep
