// Unit tests for src/query: AST classification, parser, evaluator and
// normal forms.

#include <gtest/gtest.h>

#include "query/ast.h"
#include "query/evaluator.h"
#include "query/normal_form.h"
#include "query/parser.h"
#include "workload/generators.h"

namespace prefrep {
namespace {

std::unique_ptr<Query> MustParse(std::string_view text) {
  auto q = ParseQuery(text);
  CHECK(q.ok()) << q.status().ToString();
  return *std::move(q);
}

// --------------------------------------------------------------------- AST --

TEST(AstTest, ComparisonSemantics) {
  EXPECT_TRUE(EvalComparison(ComparisonOp::kEq, Value::Number(3),
                             Value::Number(3)));
  EXPECT_TRUE(EvalComparison(ComparisonOp::kLt, Value::Number(2),
                             Value::Number(5)));
  EXPECT_TRUE(EvalComparison(ComparisonOp::kGe, Value::Number(5),
                             Value::Number(5)));
  // Order predicates are undefined (false) on names.
  EXPECT_FALSE(EvalComparison(ComparisonOp::kLt, Value::Name("a"),
                              Value::Name("b")));
  // Cross-domain equality is false; inequality true.
  EXPECT_FALSE(EvalComparison(ComparisonOp::kEq, Value::Name("1"),
                              Value::Number(1)));
  EXPECT_TRUE(EvalComparison(ComparisonOp::kNe, Value::Name("1"),
                             Value::Number(1)));
}

TEST(AstTest, NegateComparisonIsInvolution) {
  for (ComparisonOp op :
       {ComparisonOp::kEq, ComparisonOp::kNe, ComparisonOp::kLt,
        ComparisonOp::kLe, ComparisonOp::kGt, ComparisonOp::kGe}) {
    EXPECT_EQ(NegateComparison(NegateComparison(op)), op);
  }
}

TEST(AstTest, FreeVariables) {
  auto q = MustParse("exists x . R(x, y) and z < 3");
  EXPECT_EQ(q->FreeVariables(), (std::set<std::string>{"y", "z"}));
  EXPECT_FALSE(q->IsClosed());
  auto closed = MustParse("exists x, y . R(x, y)");
  EXPECT_TRUE(closed->IsClosed());
}

TEST(AstTest, ShadowingQuantifierKeepsOuterFree) {
  // x free in the left conjunct, bound in the right.
  auto q = MustParse("R(x, 1) and (exists x . R(x, 2))");
  EXPECT_EQ(q->FreeVariables(), (std::set<std::string>{"x"}));
}

TEST(AstTest, ClassifyQueryMatchesReferencePredicates) {
  // The planner's single-pass QueryShape must agree with the per-predicate
  // walks it replaces, across every shape class it distinguishes.
  const char* samples[] = {
      "true",
      "not false",
      "R(1, 2)",
      "not R(1, 2)",
      "R(1, 2) and not R(2, 2)",
      "R(x, 1)",
      "R(x, y) or R(y, x)",
      "R(x, 1) and x < 3",
      "exists x . R(x, 1)",
      "exists x, y . R(x, y) and x < y",
      "forall x . R(x, 1)",
      "exists x . not R(x, 1)",
      "R(x, 1) and (exists x . R(x, 2))",
  };
  for (const char* text : samples) {
    auto q = MustParse(text);
    QueryShape shape = ClassifyQuery(*q);
    EXPECT_EQ(shape.closed, q->IsClosed()) << text;
    EXPECT_EQ(shape.ground, q->IsGround()) << text;
    EXPECT_EQ(shape.quantifier_free, q->IsQuantifierFree()) << text;
    EXPECT_EQ(shape.conjunctive, q->IsConjunctive()) << text;
  }
  EXPECT_FALSE(ClassifyQuery(*MustParse("true")).has_atom);
  EXPECT_TRUE(ClassifyQuery(*MustParse("true")).negation_free);
  EXPECT_TRUE(ClassifyQuery(*MustParse("R(x, y)")).has_atom);
  EXPECT_FALSE(ClassifyQuery(*MustParse("not R(1, 1)")).negation_free);
  // Comparisons with variables break groundness but not atomlessness.
  QueryShape cmp = ClassifyQuery(*MustParse("x < 3"));
  EXPECT_FALSE(cmp.ground);
  EXPECT_FALSE(cmp.has_atom);
}

TEST(AstTest, Classification) {
  EXPECT_TRUE(MustParse("R(1, 2)")->IsGround());
  EXPECT_TRUE(MustParse("R(1, 2) and not R(2, 2)")->IsQuantifierFree());
  EXPECT_FALSE(MustParse("exists x . R(x, 1)")->IsQuantifierFree());
  EXPECT_FALSE(MustParse("R(x, 1)")->IsGround());
  EXPECT_TRUE(MustParse("exists x, y . R(x, y) and x < y")->IsConjunctive());
  EXPECT_FALSE(MustParse("exists x . not R(x, 1)")->IsConjunctive());
  EXPECT_FALSE(MustParse("R(1, 1) or R(2, 2)")->IsConjunctive());
  EXPECT_FALSE(MustParse("forall x . R(x, 1)")->IsConjunctive());
}

TEST(AstTest, CloneIsDeep) {
  auto q = MustParse("exists x . R(x, 1) and x < 2");
  auto copy = q->Clone();
  EXPECT_EQ(q->ToString(), copy->ToString());
  copy->bound_vars[0] = "zzz";
  EXPECT_NE(q->ToString(), copy->ToString());
}

// ------------------------------------------------------------------ parser --

TEST(ParserTest, PaperQueryQ1Parses) {
  auto q = MustParse(
      "exists x1,y1,z1,x2,y2,z2 . Mgr(Mary,x1,y1,z1) and "
      "Mgr(John,x2,y2,z2) and y1 < y2");
  EXPECT_TRUE(q->IsClosed());
  EXPECT_TRUE(q->IsConjunctive());
  EXPECT_EQ(q->kind, QueryKind::kExists);
}

TEST(ParserTest, CapitalizedTermsAreNameConstants) {
  auto q = MustParse("R(Mary, x)");
  ASSERT_EQ(q->kind, QueryKind::kAtom);
  EXPECT_TRUE(q->terms[0].is_constant());
  EXPECT_EQ(q->terms[0].constant.name(), "Mary");
  EXPECT_TRUE(q->terms[1].is_variable());
}

TEST(ParserTest, QuotedNamesAndNumbers) {
  auto q = MustParse("R('mary', -7)");
  EXPECT_EQ(q->terms[0].constant.name(), "mary");
  EXPECT_EQ(q->terms[1].constant.number(), -7);
}

TEST(ParserTest, PrecedenceAndBindsTighterThanOr) {
  auto q = MustParse("R(1) or R(2) and R(3)");
  ASSERT_EQ(q->kind, QueryKind::kOr);
  ASSERT_EQ(q->children.size(), 2u);
  EXPECT_EQ(q->children[1]->kind, QueryKind::kAnd);
}

TEST(ParserTest, QuantifierScopesToEndOfFormula) {
  auto q = MustParse("exists x . R(x) and R(2)");
  ASSERT_EQ(q->kind, QueryKind::kExists);
  EXPECT_EQ(q->children[0]->kind, QueryKind::kAnd);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto q = MustParse("(R(1) or R(2)) and R(3)");
  ASSERT_EQ(q->kind, QueryKind::kAnd);
  EXPECT_EQ(q->children[0]->kind, QueryKind::kOr);
}

TEST(ParserTest, NotAndComparisons) {
  auto q = MustParse("not (x = 1) and x != 2 and x <= 3 and x <> 4");
  ASSERT_EQ(q->kind, QueryKind::kAnd);
  EXPECT_EQ(q->children[0]->kind, QueryKind::kNot);
  EXPECT_EQ(q->children[1]->op, ComparisonOp::kNe);
  EXPECT_EQ(q->children[2]->op, ComparisonOp::kLe);
  EXPECT_EQ(q->children[3]->op, ComparisonOp::kNe);  // SQL-style <>
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  auto q = MustParse("EXISTS x . R(x) AND NOT FALSE");
  EXPECT_EQ(q->kind, QueryKind::kExists);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("R(1").ok());
  EXPECT_FALSE(ParseQuery("R(1) R(2)").ok());
  EXPECT_FALSE(ParseQuery("exists . R(1)").ok());
  EXPECT_FALSE(ParseQuery("exists X . R(X)").ok());  // capitalized variable
  EXPECT_FALSE(ParseQuery("x <").ok());
  EXPECT_FALSE(ParseQuery("R(1) and").ok());
  EXPECT_FALSE(ParseQuery("'unterminated").ok());
  EXPECT_FALSE(ParseQuery("x ! 1").ok());
  for (const char* bad : {"R(1))", "(R(1)", "R()"}) {
    EXPECT_FALSE(ParseQuery(bad).ok()) << bad;
  }
}

// `depth` copies of `open`, then `core`, then `depth` copies of `close`.
std::string Nest(const std::string& open, int depth, const std::string& core,
                 const std::string& close = "") {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open;
  out += core;
  for (int i = 0; i < depth; ++i) out += close;
  return out;
}

// `exists x1 . exists x2 . ... R(0)` with `depth` quantifiers.
std::string ExistsChain(int depth) {
  std::string out;
  for (int i = 1; i <= depth; ++i) {
    out += "exists x" + std::to_string(i) + " . ";
  }
  return out + "R(0)";
}

TEST(ParserTest, HostileNestingIsAParseErrorNotACrash) {
  for (const std::string& text :
       {Nest("not ", 100000, "R(0)"), Nest("(", 100000, "R(0)", ")"),
        ExistsChain(100000)}) {
    auto q = ParseQuery(text);
    ASSERT_FALSE(q.ok()) << text.substr(0, 40);
    EXPECT_EQ(q.status().code(), StatusCode::kParseError)
        << q.status().ToString();
  }
}

TEST(ParserTest, ThousandLevelNestingStillParses) {
  EXPECT_TRUE(ParseQuery(Nest("not ", 1000, "R(0)")).ok());
  EXPECT_TRUE(ParseQuery(Nest("(", 1000, "R(0)", ")")).ok());
  EXPECT_TRUE(ParseQuery(ExistsChain(1000)).ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  for (const char* text : {
           "exists x, y . (R(x, y) and x < y)",
           "(R(1, 2) or not (R(2, 1)))",
           "forall x . (R(x, 'a') or x = 3)",
       }) {
    auto q = MustParse(text);
    auto q2 = MustParse(q->ToString());
    EXPECT_EQ(q->ToString(), q2->ToString()) << text;
  }
}

// --------------------------------------------------------------- evaluator --

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddRelation(*Schema::Create(
                        "Emp", {Attribute{"Name", ValueType::kName},
                                Attribute{"Salary", ValueType::kNumber}}))
                    .ok());
    ASSERT_TRUE(
        db_.Insert("Emp", Tuple::Of(Value::Name("Mary"), Value::Number(40)))
            .ok());
    ASSERT_TRUE(
        db_.Insert("Emp", Tuple::Of(Value::Name("John"), Value::Number(10)))
            .ok());
    ASSERT_TRUE(
        db_.Insert("Emp", Tuple::Of(Value::Name("Ann"), Value::Number(40)))
            .ok());
  }

  bool Eval(std::string_view text, const DynamicBitset* mask = nullptr) {
    auto q = MustParse(text);
    auto result = EvalClosed(db_, mask, *q);
    CHECK(result.ok()) << result.status().ToString();
    return *result;
  }

  Database db_;
};

TEST_F(EvaluatorTest, GroundAtoms) {
  EXPECT_TRUE(Eval("Emp(Mary, 40)"));
  EXPECT_FALSE(Eval("Emp(Mary, 10)"));
  EXPECT_TRUE(Eval("not Emp(Mary, 10)"));
}

TEST_F(EvaluatorTest, Connectives) {
  EXPECT_TRUE(Eval("Emp(Mary, 40) and Emp(John, 10)"));
  EXPECT_FALSE(Eval("Emp(Mary, 40) and Emp(John, 99)"));
  EXPECT_TRUE(Eval("Emp(John, 99) or Emp(Ann, 40)"));
  EXPECT_TRUE(Eval("true"));
  EXPECT_FALSE(Eval("false"));
}

TEST_F(EvaluatorTest, ExistentialQuantification) {
  EXPECT_TRUE(Eval("exists x . Emp(x, 40)"));
  EXPECT_FALSE(Eval("exists x . Emp(x, 99)"));
  EXPECT_TRUE(Eval("exists s . Emp(Mary, s) and s > 20"));
  EXPECT_TRUE(Eval("exists x, y . Emp(x, y) and y < 20"));
}

TEST_F(EvaluatorTest, UniversalQuantification) {
  // Every salary in the database is >= 10.
  EXPECT_TRUE(Eval("forall x, s . (not Emp(x, s)) or s >= 10"));
  EXPECT_FALSE(Eval("forall x, s . (not Emp(x, s)) or s >= 20"));
}

TEST_F(EvaluatorTest, PaperStyleJoinQuery) {
  // "Mary earns more than John".
  EXPECT_TRUE(
      Eval("exists s1, s2 . Emp(Mary, s1) and Emp(John, s2) and s1 > s2"));
  EXPECT_FALSE(
      Eval("exists s1, s2 . Emp(Mary, s1) and Emp(John, s2) and s1 < s2"));
}

TEST_F(EvaluatorTest, MaskRestrictsVisibleTuples) {
  // Mask keeping only John's row (global id 1).
  DynamicBitset mask = DynamicBitset::FromIndices(3, {1});
  EXPECT_FALSE(Eval("Emp(Mary, 40)", &mask));
  EXPECT_TRUE(Eval("Emp(John, 10)", &mask));
  // The quantifier domain still includes masked-out values (shared domain),
  // but no atom can match them.
  EXPECT_FALSE(Eval("exists x . Emp(x, 40)", &mask));
}

TEST_F(EvaluatorTest, ValidationErrors) {
  // Unknown relation.
  EXPECT_FALSE(EvalClosed(db_, nullptr, *MustParse("Nope(1)")).ok());
  // Wrong arity.
  EXPECT_FALSE(EvalClosed(db_, nullptr, *MustParse("Emp(Mary)")).ok());
  // Type mismatch: Salary is numeric.
  EXPECT_FALSE(EvalClosed(db_, nullptr, *MustParse("Emp(Mary, Ann)")).ok());
  // Order comparison on a name constant.
  EXPECT_FALSE(
      EvalClosed(db_, nullptr, *MustParse("exists x . Emp(x, 40) and x < Ann"))
          .ok());
  // Free variables in a closed-query API.
  EXPECT_FALSE(EvalClosed(db_, nullptr, *MustParse("Emp(x, 40)")).ok());
}

TEST_F(EvaluatorTest, OpenQueryAnswers) {
  auto answer = EvalOpen(db_, nullptr, *MustParse("Emp(x, 40)"));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->variables, (std::vector<std::string>{"x"}));
  ASSERT_EQ(answer->rows.size(), 2u);
  EXPECT_EQ(answer->rows[0], Tuple::Of(Value::Name("Ann")));
  EXPECT_EQ(answer->rows[1], Tuple::Of(Value::Name("Mary")));
}

TEST_F(EvaluatorTest, OpenQueryTwoVariables) {
  auto answer =
      EvalOpen(db_, nullptr, *MustParse("Emp(x, s) and s < 20"));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->variables, (std::vector<std::string>{"s", "x"}));
  ASSERT_EQ(answer->rows.size(), 1u);
  // Variables are sorted: (s, x) = (10, John).
  EXPECT_EQ(answer->rows[0],
            Tuple::Of(Value::Number(10), Value::Name("John")));
}

TEST_F(EvaluatorTest, OpenQueryOnMask) {
  DynamicBitset mask = DynamicBitset::FromIndices(3, {0, 1});  // Mary, John
  auto answer = EvalOpen(db_, &mask, *MustParse("Emp(x, 40)"));
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->rows.size(), 1u);
  EXPECT_EQ(answer->rows[0], Tuple::Of(Value::Name("Mary")));
}

// ------------------------------------------------------------ normal forms --

TEST(NormalFormTest, NnfPushesNegationThroughConnectives) {
  auto q = MustParse("not (R(1) and (R(2) or not R(3)))");
  auto nnf = ToNnf(*q);
  EXPECT_EQ(nnf->ToString(), "(not (R(1)) or (not (R(2)) and R(3)))");
}

TEST(NormalFormTest, NnfFlipsQuantifiers) {
  auto q = MustParse("not (exists x . R(x))");
  auto nnf = ToNnf(*q);
  EXPECT_EQ(nnf->kind, QueryKind::kForAll);
  EXPECT_EQ(nnf->children[0]->kind, QueryKind::kNot);
}

TEST(NormalFormTest, NnfNegatesComparisonsInPlace) {
  auto q = MustParse("not (x < 3)");
  auto nnf = ToNnf(*q);
  EXPECT_EQ(nnf->kind, QueryKind::kComparison);
  EXPECT_EQ(nnf->op, ComparisonOp::kGe);
}

TEST(NormalFormTest, GroundDnfBasic) {
  auto q = MustParse("R(1, 2) and (R(2, 1) or not R(3, 3))");
  auto dnf = GroundDnf(*q);
  ASSERT_TRUE(dnf.ok());
  ASSERT_EQ(dnf->size(), 2u);
  EXPECT_EQ((*dnf)[0].size(), 2u);
  EXPECT_TRUE((*dnf)[0][0].positive);
  EXPECT_FALSE((*dnf)[1][1].positive);
}

TEST(NormalFormTest, GroundDnfRejectsVariablesAndQuantifiers) {
  EXPECT_FALSE(GroundDnf(*MustParse("R(x, 2)")).ok());
  EXPECT_FALSE(GroundDnf(*MustParse("exists x . R(x, 2)")).ok());
}

TEST(NormalFormTest, GroundDnfComparisonLiteral) {
  auto dnf = GroundDnf(*MustParse("1 < 2 and not (3 < 1)"));
  ASSERT_TRUE(dnf.ok());
  ASSERT_EQ(dnf->size(), 1u);
  EXPECT_TRUE((*dnf)[0][0].ComparisonHolds());
  EXPECT_TRUE((*dnf)[0][1].ComparisonHolds());  // negation folded into op
}

TEST(NormalFormTest, TrueAndFalseDnf) {
  auto dnf_true = GroundDnf(*MustParse("true"));
  ASSERT_TRUE(dnf_true.ok());
  ASSERT_EQ(dnf_true->size(), 1u);
  EXPECT_TRUE((*dnf_true)[0].empty());
  auto dnf_false = GroundDnf(*MustParse("false"));
  ASSERT_TRUE(dnf_false.ok());
  EXPECT_TRUE(dnf_false->empty());
}

}  // namespace
}  // namespace prefrep
