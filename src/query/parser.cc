#include "query/parser.h"

#include <cctype>

#include "base/strings.h"
#include "query/tokens.h"

namespace prefrep {

namespace {

// The grammar in parser.h, one method per production.
class Parser : TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<std::unique_ptr<Query>> Parse() {
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> q, ParseFormula());
    if (Current().kind != TokenKind::kEnd) {
      return Error("trailing input");
    }
    return q;
  }

 private:
  Result<std::unique_ptr<Query>> ParseFormula() {
    if (IsKeyword("exists") || IsKeyword("forall")) {
      return ParseQuantified();
    }
    return ParseOr();
  }

  Result<std::unique_ptr<Query>> ParseQuantified() {
    bool is_exists = IsKeyword("exists");
    Advance();
    std::vector<std::string> vars;
    while (true) {
      if (Current().kind != TokenKind::kIdent) {
        return Error("expected variable name");
      }
      if (std::isupper(static_cast<unsigned char>(Current().text[0]))) {
        return Error("quantified variable '" + std::string(Current().text) +
                     "' must start with a lower-case letter");
      }
      vars.emplace_back(Current().text);
      Advance();
      if (Current().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (Current().kind != TokenKind::kDot) {
      return Error("expected '.' after quantified variables");
    }
    Advance();
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> body,
                             Nested([&] { return ParseFormula(); }));
    return is_exists ? Query::Exists(std::move(vars), std::move(body))
                     : Query::ForAll(std::move(vars), std::move(body));
  }

  Result<std::unique_ptr<Query>> ParseOr() {
    std::vector<std::unique_ptr<Query>> parts;
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> first, ParseAnd());
    parts.push_back(std::move(first));
    while (IsKeyword("or")) {
      Advance();
      PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> next, ParseAnd());
      parts.push_back(std::move(next));
    }
    return Query::Or(std::move(parts));
  }

  Result<std::unique_ptr<Query>> ParseAnd() {
    std::vector<std::unique_ptr<Query>> parts;
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> first, ParseUnary());
    parts.push_back(std::move(first));
    while (IsKeyword("and")) {
      Advance();
      PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> next, ParseUnary());
      parts.push_back(std::move(next));
    }
    return Query::And(std::move(parts));
  }

  Result<std::unique_ptr<Query>> ParseUnary() {
    if (IsKeyword("not")) {
      Advance();
      PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> child,
                               Nested([&] { return ParseUnary(); }));
      return Query::Not(std::move(child));
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Query>> ParsePrimary() {
    if (IsKeyword("true")) {
      Advance();
      return Query::True();
    }
    if (IsKeyword("false")) {
      Advance();
      return Query::False();
    }
    if (IsKeyword("exists") || IsKeyword("forall")) {
      return ParseQuantified();
    }
    if (Current().kind == TokenKind::kLParen) {
      // Either a parenthesized formula or nothing else: terms never start
      // with '(' in this grammar.
      Advance();
      PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> inner,
                               Nested([&] { return ParseFormula(); }));
      if (Current().kind != TokenKind::kRParen) {
        return Error("expected ')'");
      }
      Advance();
      return inner;
    }
    // Relation atom: IDENT '(' ... ')'.
    if (Current().kind == TokenKind::kIdent &&
        Peek().kind == TokenKind::kLParen && !IsKeyword("not") &&
        !IsKeyword("and") && !IsKeyword("or")) {
      std::string relation(Current().text);
      Advance();  // relation name
      Advance();  // '('
      std::vector<Term> terms;
      while (true) {
        PREFREP_ASSIGN_OR_RETURN(Term t, ParseTerm());
        terms.push_back(std::move(t));
        if (Current().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
      if (Current().kind != TokenKind::kRParen) {
        return Error("expected ')' after atom arguments");
      }
      Advance();
      return Query::Atom(std::move(relation), std::move(terms));
    }
    // Comparison: term op term.
    PREFREP_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    if (Current().kind != TokenKind::kCompare) {
      return Error("expected comparison operator");
    }
    ComparisonOp op = Current().op;
    Advance();
    PREFREP_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    return Query::Cmp(op, std::move(lhs), std::move(rhs));
  }

  Result<Term> ParseTerm() {
    const Token& tok = Current();
    switch (tok.kind) {
      case TokenKind::kNumber: {
        PREFREP_ASSIGN_OR_RETURN(int64_t value, ParseInt64(tok.text));
        Advance();
        return Term::ConstNumber(value);
      }
      case TokenKind::kQuoted: {
        Term t = Term::ConstName(std::string(tok.text));
        Advance();
        return t;
      }
      case TokenKind::kIdent: {
        // Capitalized identifier = name constant; otherwise variable.
        Term t = std::isupper(static_cast<unsigned char>(tok.text[0]))
                     ? Term::ConstName(std::string(tok.text))
                     : Term::Var(std::string(tok.text));
        Advance();
        return t;
      }
      default:
        return Error("expected a term (variable, number or name)");
    }
  }
};

}  // namespace

Result<std::unique_ptr<Query>> ParseQuery(std::string_view text) {
  PREFREP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace prefrep
