#include "query/parser.h"

#include <cctype>

#include "base/strings.h"

namespace prefrep {

namespace {

enum class TokenKind {
  kIdent,
  kNumber,
  kQuotedName,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kCompare,  // = != < <= > >=
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  ComparisonOp op = ComparisonOp::kEq;  // when kCompare
  size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespace();
      size_t start = pos_;
      if (pos_ >= text_.size()) {
        tokens.push_back({TokenKind::kEnd, "", ComparisonOp::kEq, start});
        return tokens;
      }
      char c = text_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t begin = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          ++pos_;
        }
        tokens.push_back({TokenKind::kIdent,
                          std::string(text_.substr(begin, pos_ - begin)),
                          ComparisonOp::kEq, start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && pos_ + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        size_t begin = pos_;
        ++pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        tokens.push_back({TokenKind::kNumber,
                          std::string(text_.substr(begin, pos_ - begin)),
                          ComparisonOp::kEq, start});
        continue;
      }
      switch (c) {
        case '\'': {
          ++pos_;
          size_t begin = pos_;
          while (pos_ < text_.size() && text_[pos_] != '\'') ++pos_;
          if (pos_ >= text_.size()) {
            return Status::ParseError("unterminated quoted name at position " +
                                      std::to_string(start));
          }
          tokens.push_back({TokenKind::kQuotedName,
                            std::string(text_.substr(begin, pos_ - begin)),
                            ComparisonOp::kEq, start});
          ++pos_;  // closing quote
          continue;
        }
        case '(':
          tokens.push_back({TokenKind::kLParen, "(", ComparisonOp::kEq,
                            start});
          ++pos_;
          continue;
        case ')':
          tokens.push_back({TokenKind::kRParen, ")", ComparisonOp::kEq,
                            start});
          ++pos_;
          continue;
        case ',':
          tokens.push_back({TokenKind::kComma, ",", ComparisonOp::kEq,
                            start});
          ++pos_;
          continue;
        case '.':
          tokens.push_back({TokenKind::kDot, ".", ComparisonOp::kEq, start});
          ++pos_;
          continue;
        case '=':
          tokens.push_back({TokenKind::kCompare, "=", ComparisonOp::kEq,
                            start});
          ++pos_;
          continue;
        case '!':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            tokens.push_back({TokenKind::kCompare, "!=", ComparisonOp::kNe,
                              start});
            pos_ += 2;
            continue;
          }
          return Status::ParseError("unexpected '!' at position " +
                                    std::to_string(start));
        case '<':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            tokens.push_back({TokenKind::kCompare, "<=", ComparisonOp::kLe,
                              start});
            pos_ += 2;
          } else if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
            tokens.push_back({TokenKind::kCompare, "<>", ComparisonOp::kNe,
                              start});
            pos_ += 2;
          } else {
            tokens.push_back({TokenKind::kCompare, "<", ComparisonOp::kLt,
                              start});
            ++pos_;
          }
          continue;
        case '>':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            tokens.push_back({TokenKind::kCompare, ">=", ComparisonOp::kGe,
                              start});
            pos_ += 2;
          } else {
            tokens.push_back({TokenKind::kCompare, ">", ComparisonOp::kGt,
                              start});
            ++pos_;
          }
          continue;
        default:
          return Status::ParseError(std::string("unexpected character '") +
                                    c + "' at position " +
                                    std::to_string(start));
      }
    }
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

std::string Lowered(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(
                          static_cast<unsigned char>(c)));
  return out;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Query>> Parse() {
    PREFREP_ASSIGN_OR_RETURN(std::unique_ptr<Query> q, ParseFormula());
    if (Current().kind != TokenKind::kEnd) {
      return Error("trailing input");
    }
    return q;
  }

 private:
  const Token& Current() const { return tokens_[index_]; }
  const Token& Peek() const {
    return tokens_[std::min(index_ + 1, tokens_.size() - 1)];
  }
  void Advance() {
    if (index_ + 1 < tokens_.size()) ++index_;
  }
  bool IsKeyword(const char* kw) const {
    return Current().kind == TokenKind::kIdent &&
           Lowered(Current().text) == kw;
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at position " +
                              std::to_string(Current().position));
  }

  // Runs `parse` one syntactic nesting level (negation, parenthesis,
  // quantifier body) deeper. Each level costs a few stack frames of
  // recursive descent, so hostile input is refused with a parse error
  // well before it could exhaust the stack.
  template <typename ParseFn>
  Result<std::unique_ptr<Query>> Nested(const ParseFn& parse) {
    if (depth_ >= kMaxNestingDepth) {
      return Error("query nested deeper than " +
                   std::to_string(kMaxNestingDepth) + " levels");
    }
    ++depth_;
    Result<std::unique_ptr<Query>> out = parse();
    --depth_;
    return out;
  }

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
        return Error("quantified variable '" + Current().text +
                     "' must start with a lower-case letter");
      }
      vars.push_back(Current().text);
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
      std::string relation = Current().text;
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
      case TokenKind::kQuotedName: {
        Term t = Term::ConstName(tok.text);
        Advance();
        return t;
      }
      case TokenKind::kIdent: {
        // Capitalized identifier = name constant; otherwise variable.
        Term t = std::isupper(static_cast<unsigned char>(tok.text[0]))
                     ? Term::ConstName(tok.text)
                     : Term::Var(tok.text);
        Advance();
        return t;
      }
      default:
        return Error("expected a term (variable, number or name)");
    }
  }

  static constexpr int kMaxNestingDepth = 1024;

  std::vector<Token> tokens_;
  size_t index_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<std::unique_ptr<Query>> ParseQuery(std::string_view text) {
  Lexer lexer(text);
  PREFREP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace prefrep
