// The tokenizer and token cursor shared by the two text front ends: the
// first-order query parser (query/parser.cc) and the SQL translator
// (sql/sql.cc). Internal to the library; neither is a public entry point.
//
// Tokens: identifiers [A-Za-z_][A-Za-z0-9_]*, integers with an optional
// leading '-', single-quoted strings (no escapes), '*', '(', ')', ',',
// '.', and the comparisons = != <> < <= > >=. Whitespace separates
// tokens. Every error names the position (byte offset) it refers to.

#ifndef PREFREP_QUERY_TOKENS_H_
#define PREFREP_QUERY_TOKENS_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "query/ast.h"

namespace prefrep {

enum class TokenKind {
  kIdent,
  kNumber,
  kQuoted,  // text is the content between the quotes
  kStar,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kCompare,  // op says which
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string_view text;  // a view into the tokenized text
  ComparisonOp op = ComparisonOp::kEq;
  size_t position = 0;
};

// Splits `text` in one pass. The last token is always kEnd. The views in
// the result point into `text`, which must outlive them.
Result<std::vector<Token>> Tokenize(std::string_view text);

// A recursive-descent parser's read head over a token vector.
class TokenCursor {
 public:
  // Negations, parentheses and quantifier bodies, counted together, may
  // nest this deep; deeper input is a parse error rather than a stack
  // overflow.
  static constexpr int kMaxNestingDepth = 1024;

  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Current() const { return tokens_[index_]; }
  const Token& Peek() const {
    return tokens_[std::min(index_ + 1, tokens_.size() - 1)];
  }
  // Stops at the kEnd token.
  void Advance() {
    if (index_ + 1 < tokens_.size()) ++index_;
  }

  // True if the current token is the identifier `keyword` (given in lower
  // case), compared case-insensitively.
  bool IsKeyword(std::string_view keyword) const;
  bool ConsumeKeyword(std::string_view keyword) {
    if (!IsKeyword(keyword)) return false;
    Advance();
    return true;
  }

  // A kParseError naming the current token's position.
  Status Error(const std::string& message) const;

  // Runs `parse` one nesting level deeper, or fails once the depth
  // reaches kMaxNestingDepth.
  template <typename ParseFn>
  auto Nested(const ParseFn& parse) -> decltype(parse()) {
    if (depth_ >= kMaxNestingDepth) {
      return Error("input nested deeper than " +
                   std::to_string(kMaxNestingDepth) + " levels");
    }
    ++depth_;
    auto out = parse();
    --depth_;
    return out;
  }

 private:
  std::vector<Token> tokens_;
  size_t index_ = 0;
  int depth_ = 0;
};

}  // namespace prefrep

#endif  // PREFREP_QUERY_TOKENS_H_
