#include "sql/sql.h"

#include <map>
#include <set>

#include "base/strings.h"
#include "query/tokens.h"

namespace prefrep {

namespace {

struct ColumnRef {
  std::string alias;
  std::string attribute;
  std::string VariableName() const { return alias + "." + attribute; }
};

class SqlParser : TokenCursor {
 public:
  SqlParser(const Database& db, std::vector<Token> tokens)
      : TokenCursor(std::move(tokens)), db_(db) {}

  // Parses the statement into a query whose free variables are the
  // selected columns, or a closed query when `boolean_result`.
  Result<std::unique_ptr<Query>> Parse(bool boolean_result) {
    if (!ConsumeKeyword("select")) return Error("expected SELECT");
    PREFREP_RETURN_IF_ERROR(ParseSelectList());
    if (!ConsumeKeyword("from")) return Error("expected FROM");
    PREFREP_RETURN_IF_ERROR(ParseFromList());
    std::unique_ptr<Query> where;
    if (ConsumeKeyword("where")) {
      PREFREP_ASSIGN_OR_RETURN(where, ParseOr());
    }
    if (Current().kind != TokenKind::kEnd) return Error("trailing input");
    return Assemble(std::move(where), boolean_result);
  }

 private:
  Status ParseSelectList() {
    if (Current().kind == TokenKind::kStar) {
      select_star_ = true;
      Advance();
      return Status::Ok();
    }
    while (true) {
      PREFREP_ASSIGN_OR_RETURN(ColumnRef column, ParseColumn());
      selected_.push_back(column);
      if (Current().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      return Status::Ok();
    }
  }

  Result<ColumnRef> ParseColumn() {
    if (Current().kind != TokenKind::kIdent) {
      return Error("expected column reference alias.Attribute");
    }
    ColumnRef column;
    column.alias = Current().text;
    Advance();
    if (Current().kind != TokenKind::kDot) {
      return Error("expected '.' in column reference");
    }
    Advance();
    if (Current().kind != TokenKind::kIdent) {
      return Error("expected attribute name after '.'");
    }
    column.attribute = Current().text;
    Advance();
    return column;
  }

  Status ParseFromList() {
    while (true) {
      if (Current().kind != TokenKind::kIdent) {
        return Error("expected relation name in FROM");
      }
      std::string relation(Current().text);
      Advance();
      std::string alias = relation;
      if (Current().kind == TokenKind::kIdent && !IsKeyword("where")) {
        alias = Current().text;
        Advance();
      }
      PREFREP_ASSIGN_OR_RETURN(const Relation* rel, db_.relation(relation));
      if (aliases_.contains(alias)) {
        return Error("duplicate alias '" + alias + "'");
      }
      aliases_.emplace(alias, rel);
      from_order_.push_back(alias);
      if (Current().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      return Status::Ok();
    }
  }

  Result<std::unique_ptr<Query>> ParseOr() {
    std::vector<std::unique_ptr<Query>> parts;
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> first, ParseAnd());
    parts.push_back(std::move(first));
    while (ConsumeKeyword("or")) {
      PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> next, ParseAnd());
      parts.push_back(std::move(next));
    }
    return Query::Or(std::move(parts));
  }

  Result<std::unique_ptr<Query>> ParseAnd() {
    std::vector<std::unique_ptr<Query>> parts;
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> first, ParseNot());
    parts.push_back(std::move(first));
    while (ConsumeKeyword("and")) {
      PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> next, ParseNot());
      parts.push_back(std::move(next));
    }
    return Query::And(std::move(parts));
  }

  Result<std::unique_ptr<Query>> ParseNot() {
    if (ConsumeKeyword("not")) {
      PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> child,
                               Nested([&] { return ParseNot(); }));
      return Query::Not(std::move(child));
    }
    if (Current().kind == TokenKind::kLParen) {
      Advance();
      PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> inner,
                               Nested([&] { return ParseOr(); }));
      if (Current().kind != TokenKind::kRParen) return Error("expected ')'");
      Advance();
      return inner;
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Query>> ParseComparison() {
    PREFREP_ASSIGN_OR_RETURN(Term lhs, ParseOperand());
    if (Current().kind != TokenKind::kCompare) {
      return Error("expected comparison operator");
    }
    ComparisonOp op = Current().op;
    Advance();
    PREFREP_ASSIGN_OR_RETURN(Term rhs, ParseOperand());
    return Query::Cmp(op, std::move(lhs), std::move(rhs));
  }

  Result<Term> ParseOperand() {
    switch (Current().kind) {
      case TokenKind::kNumber: {
        PREFREP_ASSIGN_OR_RETURN(int64_t v, ParseInt64(Current().text));
        Advance();
        return Term::ConstNumber(v);
      }
      case TokenKind::kQuoted: {
        Term t = Term::ConstName(std::string(Current().text));
        Advance();
        return t;
      }
      case TokenKind::kIdent: {
        PREFREP_ASSIGN_OR_RETURN(ColumnRef column, ParseColumn());
        PREFREP_RETURN_IF_ERROR(ValidateColumn(column));
        return Term::Var(column.VariableName());
      }
      default:
        return Error("expected column, number or string literal");
    }
  }

  Status ValidateColumn(const ColumnRef& column) const {
    auto it = aliases_.find(column.alias);
    if (it == aliases_.end()) {
      return Status::ParseError("unknown alias '" + column.alias + "'");
    }
    if (!it->second->schema().HasAttribute(column.attribute)) {
      return Status::ParseError("relation of alias '" + column.alias +
                                "' has no attribute '" + column.attribute +
                                "'");
    }
    return Status::Ok();
  }

  Result<std::unique_ptr<Query>> Assemble(std::unique_ptr<Query> where,
                                          bool boolean_result) {
    // One atom per FROM entry, terms = per-column variables.
    std::vector<std::unique_ptr<Query>> conjuncts;
    std::vector<std::string> all_vars;
    for (const std::string& alias : from_order_) {
      const Relation* rel = aliases_.at(alias);
      std::vector<Term> terms;
      for (const Attribute& attr : rel->schema().attributes()) {
        std::string var = alias + "." + attr.name;
        terms.push_back(Term::Var(var));
        all_vars.push_back(var);
      }
      conjuncts.push_back(
          Query::Atom(rel->schema().relation_name(), std::move(terms)));
    }
    if (where != nullptr) conjuncts.push_back(std::move(where));
    std::unique_ptr<Query> body = Query::And(std::move(conjuncts));

    // Determine free (selected) variables.
    std::set<std::string> free;
    if (!boolean_result) {
      if (select_star_) {
        free.insert(all_vars.begin(), all_vars.end());
      } else {
        for (const ColumnRef& column : selected_) {
          PREFREP_RETURN_IF_ERROR(ValidateColumn(column));
          free.insert(column.VariableName());
        }
      }
    }
    std::vector<std::string> quantified;
    for (const std::string& var : all_vars) {
      if (!free.contains(var)) quantified.push_back(var);
    }
    if (quantified.empty()) return body;
    return Query::Exists(std::move(quantified), std::move(body));
  }

  const Database& db_;
  bool select_star_ = false;
  std::vector<ColumnRef> selected_;
  std::map<std::string, const Relation*> aliases_;
  std::vector<std::string> from_order_;
};

}  // namespace

Result<std::unique_ptr<Query>> ParseSql(const Database& db,
                                        std::string_view sql) {
  PREFREP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  SqlParser parser(db, std::move(tokens));
  return parser.Parse(/*boolean_result=*/false);
}

Result<std::unique_ptr<Query>> ParseSqlBoolean(const Database& db,
                                               std::string_view sql) {
  PREFREP_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  SqlParser parser(db, std::move(tokens));
  return parser.Parse(/*boolean_result=*/true);
}

}  // namespace prefrep
