// Randomized equivalence suite: PreparedQuery (query/prepared.h) must
// agree with the reference evaluator (query/evaluator.h) on every
// generated (database, query, mask) triple — closed and open queries,
// name/number mixed domains, full/random/empty masks. Also pins the
// DNF-hoisted GroundConsistentOpenAnswers against the repair-enumerating
// engine on random monotone instances.

#include "query/prepared.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "base/random.h"
#include "core/families.h"
#include "cqa/cqa.h"
#include "cqa/planner.h"
#include "priority/priority.h"
#include "query/evaluator.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

// ----------------------------------------------------- random databases --

// A random database over 1-2 relations with mixed name/number columns.
// Name values come from a small pool so atoms sometimes match.
Database RandomDatabase(Rng& rng) {
  static const char* kNames[] = {"a", "b", "c", "mary", "john"};
  Database db;
  int relation_count = 1 + static_cast<int>(rng.UniformInt(2));
  for (int r = 0; r < relation_count; ++r) {
    std::string rel_name = std::string("R") + std::to_string(r);
    int arity = 1 + static_cast<int>(rng.UniformInt(3));
    std::vector<Attribute> attrs;
    for (int a = 0; a < arity; ++a) {
      ValueType type =
          rng.Bernoulli(0.5) ? ValueType::kName : ValueType::kNumber;
      attrs.push_back(Attribute{std::string("A") + std::to_string(a), type});
    }
    auto schema = Schema::Create(rel_name, std::move(attrs));
    CHECK(schema.ok());
    CHECK(db.AddRelation(*schema).ok());
    // May stay empty (empty-relation edge case).
    int rows = static_cast<int>(rng.UniformInt(7));
    for (int t = 0; t < rows; ++t) {
      std::vector<Value> values;
      for (int a = 0; a < arity; ++a) {
        if (db.relations()[r].schema().attribute(a).type == ValueType::kName) {
          values.push_back(Value::Name(kNames[rng.UniformInt(5)]));
        } else {
          values.push_back(Value::Number(rng.UniformRange(0, 4)));
        }
      }
      // Duplicates are rejected; just skip them.
      (void)db.Insert(rel_name, Tuple(std::move(values)));
    }
  }
  return db;
}

// ------------------------------------------------------- random queries --

// Generates random type-correct queries. Bound variables get globally
// fresh names (vb0, vb1, ...); free variables come from a small shared
// pool (x, y) so open queries have 1-2 answer columns.
class QueryGen {
 public:
  QueryGen(Rng& rng, const Database& db) : rng_(rng), db_(db) {}

  std::unique_ptr<Query> Closed(int depth) {
    std::unique_ptr<Query> q = Node(depth, /*allow_free=*/false);
    std::set<std::string> free = q->FreeVariables();
    if (!free.empty()) {
      // Defensive: close over anything left free.
      q = Query::Exists({free.begin(), free.end()}, std::move(q));
    }
    return q;
  }

  std::unique_ptr<Query> Open(int depth) {
    return Node(depth, /*allow_free=*/true);
  }

 private:
  Term RandomTerm(ValueType type, bool allow_free) {
    static const char* kNames[] = {"a", "b", "c", "mary", "john"};
    uint64_t pick = rng_.UniformInt(3);
    if (pick == 0 && !bound_.empty()) {
      return Term::Var(bound_[rng_.UniformInt(bound_.size())]);
    }
    if (pick == 1 && allow_free) {
      return Term::Var(rng_.Bernoulli(0.5) ? "x" : "y");
    }
    if (type == ValueType::kName) {
      return Term::ConstName(kNames[rng_.UniformInt(5)]);
    }
    return Term::ConstNumber(rng_.UniformRange(0, 4));
  }

  std::unique_ptr<Query> Leaf(bool allow_free) {
    if (rng_.Bernoulli(0.7) && db_.relation_count() > 0) {
      int rel = static_cast<int>(rng_.UniformInt(db_.relation_count()));
      const Schema& schema = db_.relations()[rel].schema();
      std::vector<Term> terms;
      for (int i = 0; i < schema.arity(); ++i) {
        terms.push_back(RandomTerm(schema.attribute(i).type, allow_free));
      }
      return Query::Atom(schema.relation_name(), std::move(terms));
    }
    // Comparison. Order predicates only over numeric terms (name
    // constants in order comparisons are rejected by validation).
    static const ComparisonOp kOps[] = {ComparisonOp::kEq, ComparisonOp::kNe,
                                        ComparisonOp::kLt, ComparisonOp::kLe,
                                        ComparisonOp::kGt, ComparisonOp::kGe};
    ComparisonOp op = kOps[rng_.UniformInt(6)];
    bool is_order = op != ComparisonOp::kEq && op != ComparisonOp::kNe;
    ValueType type = is_order || rng_.Bernoulli(0.5) ? ValueType::kNumber
                                                     : ValueType::kName;
    return Query::Cmp(op, RandomTerm(type, allow_free),
                      RandomTerm(type, allow_free));
  }

  std::unique_ptr<Query> Node(int depth, bool allow_free) {
    if (depth <= 0) return Leaf(allow_free);
    switch (rng_.UniformInt(6)) {
      case 0: {
        std::vector<std::unique_ptr<Query>> children;
        children.push_back(Node(depth - 1, allow_free));
        children.push_back(Node(depth - 1, allow_free));
        return Query::And(std::move(children));
      }
      case 1: {
        std::vector<std::unique_ptr<Query>> children;
        children.push_back(Node(depth - 1, allow_free));
        children.push_back(Node(depth - 1, allow_free));
        return Query::Or(std::move(children));
      }
      case 2:
        return Query::Not(Node(depth - 1, allow_free));
      case 3:
      case 4: {
        // Fresh bound variable name: the reference evaluator's
        // name-keyed environment conflates shadowed binders.
        std::string var = "vb" + std::to_string(next_bound_++);
        bound_.push_back(var);
        auto child = Node(depth - 1, allow_free);
        bound_.pop_back();
        bool exists = rng_.Bernoulli(0.5);
        return exists ? Query::Exists({var}, std::move(child))
                      : Query::ForAll({var}, std::move(child));
      }
      default:
        return Leaf(allow_free);
    }
  }

  Rng& rng_;
  const Database& db_;
  std::vector<std::string> bound_;
  int next_bound_ = 0;
};

DynamicBitset RandomMask(Rng& rng, int size) {
  DynamicBitset mask(size);
  for (int i = 0; i < size; ++i) {
    if (rng.Bernoulli(0.5)) mask.Set(i);
  }
  return mask;
}

// ------------------------------------------------------------ the suites --

TEST(PreparedEvalEquivalence, ClosedQueriesMatchReferenceEvaluator) {
  Rng rng(20260729);
  int compared = 0;
  for (int trial = 0; trial < 120; ++trial) {
    Database db = RandomDatabase(rng);
    QueryGen gen(rng, db);
    std::unique_ptr<Query> query = gen.Closed(3);
    if (!ValidateQuery(db, *query).ok()) continue;

    auto prepared = PreparedQuery::Compile(db, *query);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString()
                               << "\nquery: " << query->ToString();
    std::vector<DynamicBitset> masks;
    masks.push_back(DynamicBitset(db.tuple_count()));  // empty repair
    masks.push_back(db.AllTuples());
    for (int m = 0; m < 4; ++m) masks.push_back(RandomMask(rng, db.tuple_count()));

    for (const DynamicBitset& mask : masks) {
      auto expected = EvalClosed(db, &mask, *query);
      auto actual = prepared->EvalClosed(&mask);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ASSERT_EQ(*expected, *actual)
          << "query: " << query->ToString() << "\ndb:\n" << db.ToString();
      ++compared;
    }
    // nullptr mask (full database).
    auto expected = EvalClosed(db, nullptr, *query);
    auto actual = prepared->EvalClosed(nullptr);
    ASSERT_TRUE(expected.ok() && actual.ok());
    ASSERT_EQ(*expected, *actual) << "query: " << query->ToString();
  }
  // The generator must not degenerate into skipping everything.
  EXPECT_GT(compared, 300);
}

TEST(PreparedEvalEquivalence, OpenQueriesMatchReferenceEvaluator) {
  Rng rng(977);
  int compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Database db = RandomDatabase(rng);
    QueryGen gen(rng, db);
    std::unique_ptr<Query> query = gen.Open(2);
    if (!ValidateQuery(db, *query).ok()) continue;

    auto prepared = PreparedQuery::Compile(db, *query);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    std::vector<DynamicBitset> masks;
    masks.push_back(DynamicBitset(db.tuple_count()));
    for (int m = 0; m < 2; ++m) masks.push_back(RandomMask(rng, db.tuple_count()));

    for (const DynamicBitset& mask : masks) {
      auto expected = EvalOpen(db, &mask, *query);
      auto actual = prepared->EvalOpen(&mask);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ASSERT_EQ(expected->variables, actual->variables)
          << "query: " << query->ToString();
      ASSERT_EQ(expected->rows, actual->rows)
          << "query: " << query->ToString() << "\ndb:\n" << db.ToString();
      ++compared;
    }
  }
  EXPECT_GT(compared, 100);
}

TEST(PreparedEvalEquivalence, CompileRejectsInvalidQueries) {
  Rng rng(5);
  Database db = RandomDatabase(rng);
  // Wrong arity: Compile must fail exactly like ValidateQuery.
  auto bad = Query::Atom(db.relations()[0].schema().relation_name(), {});
  EXPECT_FALSE(PreparedQuery::Compile(db, *bad).ok());
  EXPECT_FALSE(PreparedQuery::Compile(db, *Query::Atom("NoSuchRel", {})).ok());
}

TEST(PreparedEvalEquivalence, ClosedEvalRejectsOpenQueries) {
  Rng rng(6);
  Database db = RandomDatabase(rng);
  const Schema& schema = db.relations()[0].schema();
  std::vector<Term> terms;
  for (int i = 0; i < schema.arity(); ++i) terms.push_back(Term::Var("x"));
  auto open = Query::Atom(schema.relation_name(), std::move(terms));
  auto prepared = PreparedQuery::Compile(db, *open);
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->is_closed());
  EXPECT_FALSE(prepared->EvalClosed(nullptr).ok());
  EXPECT_TRUE(prepared->EvalOpen(nullptr).ok());
}

// Deliberate divergence from the reference evaluator (see
// query/prepared.h): binders are lexically scoped per quantifier, so a
// reused variable name gets the standard first-order semantics instead
// of the reference evaluator's name-conflated type narrowing.
TEST(PreparedEvalEquivalence, ShadowedBinderNamesAreScopedPerBinder) {
  Database db;
  auto r = Schema::Create("R", {Attribute{"A", ValueType::kName}});
  auto s = Schema::Create("S", {Attribute{"B", ValueType::kNumber}});
  ASSERT_TRUE(r.ok() && s.ok());
  ASSERT_TRUE(db.AddRelation(*r).ok());
  ASSERT_TRUE(db.AddRelation(*s).ok());
  ASSERT_TRUE(db.Insert("R", Tuple::Of(Value::Name("a"))).ok());
  ASSERT_TRUE(db.Insert("S", Tuple::Of(Value::Number(1))).ok());

  // (exists x . R(x)) and (exists x . S(x)): both conjuncts hold; the
  // name-keyed reference evaluator narrows the shared "x" to the empty
  // domain and answers false.
  std::vector<std::unique_ptr<Query>> conjuncts;
  conjuncts.push_back(
      Query::Exists({"x"}, Query::Atom("R", {Term::Var("x")})));
  conjuncts.push_back(
      Query::Exists({"x"}, Query::Atom("S", {Term::Var("x")})));
  std::unique_ptr<Query> query = Query::And(std::move(conjuncts));

  auto prepared = PreparedQuery::Compile(db, *query);
  ASSERT_TRUE(prepared.ok());
  auto holds = prepared->EvalClosed(nullptr);
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);

  auto reference = EvalClosed(db, nullptr, *query);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(*reference);  // the documented reference-evaluator quirk
}

TEST(PreparedEvalEquivalence, MaskSizeMismatchIsRejected) {
  Rng rng(11);
  Database db = RandomDatabase(rng);
  QueryGen gen(rng, db);
  std::unique_ptr<Query> query = gen.Closed(2);
  auto prepared = PreparedQuery::Compile(db, *query);
  ASSERT_TRUE(prepared.ok());
  DynamicBitset wrong(db.tuple_count() + 3);
  EXPECT_FALSE(prepared->EvalClosed(&wrong).ok());
  EXPECT_FALSE(prepared->EvalOpen(&wrong).ok());
}

// The CQA engines sit on top of the prepared path; pin one end-to-end
// equivalence: PlannedConsistentAnswer on random instances agrees with
// evaluating the reference evaluator per enumerated repair.
TEST(PreparedEvalEquivalence, PlannedConsistentAnswerMatchesReferenceLoop) {
  Rng rng(31337);
  for (int trial = 0; trial < 15; ++trial) {
    GeneratedInstance instance =
        MakeRandomInstance(rng, /*tuple_target=*/8, /*arity=*/2,
                           /*domain_size=*/3, /*fd_count=*/1);
    auto problem = RepairProblem::Create(instance.db.get(), instance.fds);
    ASSERT_TRUE(problem.ok());
    Priority priority = RandomRankingPriority(rng, problem->graph(), 0.5);
    QueryGen gen(rng, *instance.db);
    std::unique_ptr<Query> query = gen.Closed(2);
    if (!ValidateQuery(*instance.db, *query).ok()) continue;

    for (RepairFamily family :
         {RepairFamily::kAll, RepairFamily::kLocal, RepairFamily::kGlobal}) {
      auto verdict =
          PlannedConsistentAnswer(*problem, priority, family, *query);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();

      bool seen_true = false;
      bool seen_false = false;
      Status walked = ForEachPreferredRepair(
          problem->graph(), priority, family, {},
          [&](int /*worker*/, const DynamicBitset& repair) {
            auto holds = EvalClosed(*instance.db, &repair, *query);
            CHECK(holds.ok());
            (*holds ? seen_true : seen_false) = true;
            return true;
          });
      ASSERT_TRUE(walked.ok()) << walked.ToString();
      CqaVerdict expected = seen_true && seen_false
                                ? CqaVerdict::kUndetermined
                                : (seen_false ? CqaVerdict::kCertainlyFalse
                                              : CqaVerdict::kCertainlyTrue);
      ASSERT_EQ(*verdict, expected) << "query: " << query->ToString();
    }
  }
}

// GroundConsistentOpenAnswers (DNF skeleton hoisted out of the candidate
// loop) must agree with intersecting the per-repair answer sets.
TEST(PreparedEvalEquivalence, GroundOpenAnswersMatchRepairIntersection) {
  Rng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    GeneratedInstance instance =
        MakeRandomInstance(rng, /*tuple_target=*/7, /*arity=*/2,
                           /*domain_size=*/3, /*fd_count=*/1);
    auto problem = RepairProblem::Create(instance.db.get(), instance.fds);
    ASSERT_TRUE(problem.ok());

    // Monotone quantifier-free open query: R0(x, y) [and x = c].
    std::vector<Term> terms = {Term::Var("x"), Term::Var("y")};
    std::unique_ptr<Query> query =
        Query::Atom(instance.db->relations()[0].schema().relation_name(),
                    std::move(terms));
    if (rng.Bernoulli(0.5)) {
      std::vector<std::unique_ptr<Query>> children;
      children.push_back(std::move(query));
      children.push_back(Query::Cmp(ComparisonOp::kEq, Term::Var("x"),
                                    Term::ConstNumber(rng.UniformRange(0, 2))));
      query = Query::And(std::move(children));
    }

    auto fast = GroundConsistentOpenAnswers(*problem, *query);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();

    Priority empty = Priority::Empty(problem->graph());
    auto slow = PlannedConsistentAnswers(*problem, empty, RepairFamily::kAll,
                                         *query);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString();
    EXPECT_EQ(fast->variables, slow->variables);
    EXPECT_EQ(fast->rows, slow->rows) << "query: " << query->ToString();
  }
}

}  // namespace
}  // namespace prefrep
