// Tests for src/denial: denial constraints, conflict hypergraphs,
// hypergraph repairs and ground CQA (§6 extension).

#include <gtest/gtest.h>

#include <set>

#include "core/families.h"
#include "denial/denial.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "repair/repair.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

std::unique_ptr<Query> MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  CHECK(q.ok()) << q.status().ToString();
  return *std::move(q);
}

// Emp(Name, Salary, Bonus): playground for ternary constraints.
Database EmpDb(std::vector<std::tuple<const char*, int, int>> rows) {
  Database db;
  CHECK(db.AddRelation(*Schema::Create(
                "Emp", {Attribute{"Name", ValueType::kName},
                        Attribute{"Salary", ValueType::kNumber},
                        Attribute{"Bonus", ValueType::kNumber}}))
            .ok());
  for (const auto& [name, salary, bonus] : rows) {
    CHECK(db.Insert("Emp", Tuple::Of(Value::Name(name), Value::Number(salary),
                                     Value::Number(bonus)))
              .ok());
  }
  return db;
}

TEST(DenialConstraintTest, SingleTupleRangeConstraint) {
  // ¬∃t . t.Salary > 100: unary denial constraint.
  Database db = EmpDb({{"a", 50, 0}, {"b", 150, 0}, {"c", 200, 0}});
  auto dc = DenialConstraint::Create(
      db, {"Emp"},
      {DcComparison{ComparisonOp::kGt, DcOperand::Attr(0, 1),
                    DcOperand::Const(Value::Number(100))}});
  ASSERT_TRUE(dc.ok()) << dc.status().ToString();
  auto edges = FindHyperedges(db, {*dc});
  ASSERT_TRUE(edges.ok());
  // Tuples 1 and 2 are each singleton violations.
  EXPECT_EQ(*edges, (std::vector<std::vector<TupleId>>{{1}, {2}}));
}

TEST(DenialConstraintTest, FdEncodingMatchesConflictGraph) {
  // The k=2 denial encoding of an FD yields exactly the conflict edges.
  GeneratedInstance rn = MakeRnInstance(3);
  auto problem = RepairProblem::Create(rn.db.get(), rn.fds);
  ASSERT_TRUE(problem.ok());
  auto dc = DenialConstraint::FromFd(*rn.db, rn.fds[0], rn.fds[0].rhs()[0]);
  ASSERT_TRUE(dc.ok());
  auto hyperedges = FindHyperedges(*rn.db, {*dc});
  ASSERT_TRUE(hyperedges.ok());
  std::vector<std::vector<TupleId>> expected;
  for (auto [u, v] : problem->graph().edges()) expected.push_back({u, v});
  EXPECT_EQ(*hyperedges, expected);
}

TEST(DenialConstraintTest, TernaryConstraintMakesRealHyperedges) {
  // ¬∃ t1,t2,t3 . t1.Salary + ... — we use: three distinct tuples with the
  // same Bonus where t1 < t2 < t3 on Salary (a "three equal bonuses"
  // pattern): Bonus(t1)=Bonus(t2)=Bonus(t3) ∧ Salary strictly increasing
  // forces the hyperedge {t1,t2,t3} but no pair alone.
  Database db = EmpDb({{"a", 10, 5}, {"b", 20, 5}, {"c", 30, 5}});
  auto dc = DenialConstraint::Create(
      db, {"Emp", "Emp", "Emp"},
      {DcComparison{ComparisonOp::kEq, DcOperand::Attr(0, 2),
                    DcOperand::Attr(1, 2)},
       DcComparison{ComparisonOp::kEq, DcOperand::Attr(1, 2),
                    DcOperand::Attr(2, 2)},
       DcComparison{ComparisonOp::kLt, DcOperand::Attr(0, 1),
                    DcOperand::Attr(1, 1)},
       DcComparison{ComparisonOp::kLt, DcOperand::Attr(1, 1),
                    DcOperand::Attr(2, 1)}});
  ASSERT_TRUE(dc.ok());
  auto edges = FindHyperedges(db, {*dc});
  ASSERT_TRUE(edges.ok());
  EXPECT_EQ(*edges, (std::vector<std::vector<TupleId>>{{0, 1, 2}}));

  // Repairs: all 2-subsets (removing any one tuple breaks the edge).
  ConflictHypergraph graph(3, *edges);
  auto repairs = AllHypergraphRepairs(graph);
  ASSERT_TRUE(repairs.ok());
  std::set<std::vector<int>> sets;
  for (const auto& r : *repairs) sets.insert(r.ToVector());
  EXPECT_EQ(sets, (std::set<std::vector<int>>{{0, 1}, {0, 2}, {1, 2}}));
}

TEST(DenialConstraintTest, ValidationErrors) {
  Database db = EmpDb({{"a", 1, 1}});
  EXPECT_FALSE(DenialConstraint::Create(db, {}, {}).ok());
  EXPECT_FALSE(DenialConstraint::Create(db, {"Nope"}, {}).ok());
  EXPECT_FALSE(DenialConstraint::Create(
                   db, {"Emp"},
                   {DcComparison{ComparisonOp::kEq, DcOperand::Attr(2, 0),
                                 DcOperand::Attr(0, 0)}})
                   .ok());
  EXPECT_FALSE(DenialConstraint::Create(
                   db, {"Emp"},
                   {DcComparison{ComparisonOp::kEq, DcOperand::Attr(0, 9),
                                 DcOperand::Attr(0, 0)}})
                   .ok());
}

TEST(ConflictHypergraphTest, IndependenceAndMaximality) {
  // Edges {0,1,2} and {2,3}.
  ConflictHypergraph g(5, {{0, 1, 2}, {2, 3}});
  EXPECT_TRUE(g.IsIndependent(DynamicBitset::FromIndices(5, {0, 1, 3, 4})));
  EXPECT_FALSE(
      g.IsIndependent(DynamicBitset::FromIndices(5, {0, 1, 2, 4})));
  EXPECT_TRUE(
      g.IsMaximalIndependent(DynamicBitset::FromIndices(5, {0, 1, 3, 4})));
  // {0,1,4} is independent but 3 can still be added.
  EXPECT_FALSE(
      g.IsMaximalIndependent(DynamicBitset::FromIndices(5, {0, 1, 4})));
  // Isolated vertex 4 must always be present.
  EXPECT_FALSE(
      g.IsMaximalIndependent(DynamicBitset::FromIndices(5, {0, 1, 3})));
}

TEST(ConflictHypergraphTest, EnumerationMatchesBruteForce) {
  ConflictHypergraph g(5, {{0, 1, 2}, {2, 3}, {1, 3, 4}});
  std::set<std::vector<int>> enumerated;
  EnumerateHypergraphRepairs(g, [&](const DynamicBitset& s) {
    enumerated.insert(s.ToVector());
    return true;
  });
  // Brute force over all subsets.
  std::set<std::vector<int>> expected;
  for (uint32_t mask = 0; mask < 32; ++mask) {
    DynamicBitset s(5);
    for (int i = 0; i < 5; ++i) {
      if (mask & (1u << i)) s.Set(i);
    }
    if (g.IsMaximalIndependent(s)) expected.insert(s.ToVector());
  }
  EXPECT_EQ(enumerated, expected);
}

TEST(ConflictHypergraphTest, GraphCaseAgreesWithBinaryMachinery) {
  // On FD-only constraints the hypergraph repairs equal the conflict-graph
  // repairs.
  GeneratedInstance inst = MakeChainInstance(5);
  auto problem = RepairProblem::Create(inst.db.get(), inst.fds);
  ASSERT_TRUE(problem.ok());
  std::vector<DenialConstraint> dcs;
  for (const auto& fd : inst.fds) {
    auto dc = DenialConstraint::FromFd(*inst.db, fd, fd.rhs()[0]);
    ASSERT_TRUE(dc.ok());
    dcs.push_back(*dc);
  }
  auto hyperedges = FindHyperedges(*inst.db, dcs);
  ASSERT_TRUE(hyperedges.ok());
  ConflictHypergraph hg(inst.db->tuple_count(), *hyperedges);

  auto repairs =
      PreferredRepairs(problem->graph(), Priority(), RepairFamily::kAll);
  ASSERT_TRUE(repairs.ok()) << repairs.status().ToString();
  std::set<DynamicBitset> from_graph(repairs->begin(), repairs->end());
  std::set<DynamicBitset> from_hypergraph;
  EnumerateHypergraphRepairs(hg, [&](const DynamicBitset& r) {
    from_hypergraph.insert(r);
    return true;
  });
  EXPECT_EQ(from_graph, from_hypergraph);
}

TEST(DenialCqaTest, GroundAnswersOnHypergraph) {
  // Bonus-triple hyperedge {a,b,c}: every repair drops exactly one.
  Database db = EmpDb({{"a", 10, 5}, {"b", 20, 5}, {"c", 30, 5}});
  auto dc = DenialConstraint::Create(
      db, {"Emp", "Emp", "Emp"},
      {DcComparison{ComparisonOp::kEq, DcOperand::Attr(0, 2),
                    DcOperand::Attr(1, 2)},
       DcComparison{ComparisonOp::kEq, DcOperand::Attr(1, 2),
                    DcOperand::Attr(2, 2)},
       DcComparison{ComparisonOp::kLt, DcOperand::Attr(0, 1),
                    DcOperand::Attr(1, 1)},
       DcComparison{ComparisonOp::kLt, DcOperand::Attr(1, 1),
                    DcOperand::Attr(2, 1)}});
  ASSERT_TRUE(dc.ok());
  auto edges = FindHyperedges(db, {*dc});
  ASSERT_TRUE(edges.ok());
  ConflictHypergraph graph(3, *edges);

  // No single fact is certain...
  EXPECT_FALSE(
      *GroundConsistentAnswerDenial(db, graph, *MustParse("Emp('a', 10, 5)")));
  // ...but any two of the three are jointly present in some repair, so
  // "at least two present" is certain:
  EXPECT_TRUE(*GroundConsistentAnswerDenial(
      db, graph,
      *MustParse("(Emp('a',10,5) and Emp('b',20,5)) or "
                 "(Emp('a',10,5) and Emp('c',30,5)) or "
                 "(Emp('b',20,5) and Emp('c',30,5))")));
  // All three together are never present.
  EXPECT_TRUE(*GroundConsistentAnswerDenial(
      db, graph,
      *MustParse("not (Emp('a',10,5) and Emp('b',20,5) and "
                 "Emp('c',30,5))")));
}

TEST(DenialCqaTest, DifferentialAgainstEnumeration) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    // Random small instance with a unary bound and an FD-style constraint.
    static const char* kNames[] = {"a", "b", "c", "d", "e", "f"};
    int n = 4 + static_cast<int>(rng.UniformInt(3));
    std::set<std::tuple<std::string, int, int>> used;
    Database db = EmpDb({});
    for (int i = 0; i < n; ++i) {
      const char* name = kNames[rng.UniformInt(6)];
      int salary = static_cast<int>(rng.UniformInt(4)) * 40;
      int bonus = static_cast<int>(rng.UniformInt(2));
      if (!used.insert({name, salary, bonus}).second) continue;
      CHECK(db.Insert("Emp", Tuple::Of(Value::Name(name),
                                       Value::Number(salary),
                                       Value::Number(bonus)))
                .ok());
    }
    // "No salary above 100" and "names are unique keys for salary".
    auto range = DenialConstraint::Create(
        db, {"Emp"},
        {DcComparison{ComparisonOp::kGt, DcOperand::Attr(0, 1),
                      DcOperand::Const(Value::Number(100))}});
    auto key = DenialConstraint::Create(
        db, {"Emp", "Emp"},
        {DcComparison{ComparisonOp::kEq, DcOperand::Attr(0, 0),
                      DcOperand::Attr(1, 0)},
         DcComparison{ComparisonOp::kNe, DcOperand::Attr(0, 1),
                      DcOperand::Attr(1, 1)}});
    ASSERT_TRUE(range.ok() && key.ok());
    auto edges = FindHyperedges(db, {*range, *key});
    ASSERT_TRUE(edges.ok());
    ConflictHypergraph graph(db.tuple_count(), *edges);

    auto repairs = AllHypergraphRepairs(graph);
    ASSERT_TRUE(repairs.ok());
    ASSERT_GE(repairs->size(), 1u);

    // Pick random ground facts and compare engine vs definition.
    const Relation& rel = *db.relation("Emp").value();
    for (int q = 0; q < 6; ++q) {
      const Tuple& t = rel.tuple(static_cast<int>(rng.UniformInt(rel.size())));
      std::vector<Term> terms;
      for (const Value& v : t.values()) terms.push_back(Term::Const(v));
      auto query = Query::Atom("Emp", std::move(terms));
      if (rng.Bernoulli(0.5)) query = Query::Not(std::move(query));

      auto fast = GroundConsistentAnswerDenial(db, graph, *query);
      ASSERT_TRUE(fast.ok()) << fast.status().ToString();
      bool naive = true;
      for (const DynamicBitset& r : *repairs) {
        auto holds = EvalClosed(db, &r, *query);
        ASSERT_TRUE(holds.ok());
        naive = naive && *holds;
      }
      EXPECT_EQ(*fast, naive)
          << "trial " << trial << " query " << query->ToString();
    }
  }
}

}  // namespace
}  // namespace prefrep
