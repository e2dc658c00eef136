#include "query/tokens.h"

#include <cctype>

namespace prefrep {

namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Status ErrorAt(const std::string& message, size_t position) {
  return Status::ParseError(message + " at position " +
                            std::to_string(position));
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> tokens;
  size_t pos = 0;
  size_t start = 0;  // of the token being read
  // Emits text[start, end) and resumes the scan at `end`.
  auto push = [&](TokenKind kind, size_t end,
                  ComparisonOp op = ComparisonOp::kEq) {
    tokens.push_back({kind, text.substr(start, end - start), op, start});
    pos = end;
  };
  auto next_is = [&](char c) {
    return pos + 1 < text.size() && text[pos + 1] == c;
  };
  while (true) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    start = pos;
    if (pos >= text.size()) {
      push(TokenKind::kEnd, pos);
      return tokens;
    }
    const char c = text[pos];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = pos + 1;
      while (end < text.size() && IsIdentChar(text[end])) ++end;
      push(TokenKind::kIdent, end);
      continue;
    }
    if (IsDigit(c) || (c == '-' && pos + 1 < text.size() &&
                       IsDigit(text[pos + 1]))) {
      size_t end = pos + 1;
      while (end < text.size() && IsDigit(text[end])) ++end;
      push(TokenKind::kNumber, end);
      continue;
    }
    switch (c) {
      case '\'': {
        size_t close = text.find('\'', start + 1);
        if (close == std::string_view::npos) {
          return ErrorAt("unterminated quoted string", start);
        }
        tokens.push_back({TokenKind::kQuoted,
                          text.substr(start + 1, close - start - 1),
                          ComparisonOp::kEq, start});
        pos = close + 1;
        continue;
      }
      case '*':
        push(TokenKind::kStar, pos + 1);
        continue;
      case '(':
        push(TokenKind::kLParen, pos + 1);
        continue;
      case ')':
        push(TokenKind::kRParen, pos + 1);
        continue;
      case ',':
        push(TokenKind::kComma, pos + 1);
        continue;
      case '.':
        push(TokenKind::kDot, pos + 1);
        continue;
      case '=':
        push(TokenKind::kCompare, pos + 1, ComparisonOp::kEq);
        continue;
      case '!':
        if (!next_is('=')) return ErrorAt("unexpected '!'", start);
        push(TokenKind::kCompare, pos + 2, ComparisonOp::kNe);
        continue;
      case '<':
        if (next_is('=')) {
          push(TokenKind::kCompare, pos + 2, ComparisonOp::kLe);
        } else if (next_is('>')) {
          push(TokenKind::kCompare, pos + 2, ComparisonOp::kNe);
        } else {
          push(TokenKind::kCompare, pos + 1, ComparisonOp::kLt);
        }
        continue;
      case '>':
        if (next_is('=')) {
          push(TokenKind::kCompare, pos + 2, ComparisonOp::kGe);
        } else {
          push(TokenKind::kCompare, pos + 1, ComparisonOp::kGt);
        }
        continue;
      default:
        return ErrorAt(std::string("unexpected character '") + c + "'", start);
    }
  }
}

bool TokenCursor::IsKeyword(std::string_view keyword) const {
  const Token& token = Current();
  if (token.kind != TokenKind::kIdent || token.text.size() != keyword.size()) {
    return false;
  }
  for (size_t i = 0; i < keyword.size(); ++i) {
    char c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(token.text[i])));
    if (c != keyword[i]) return false;
  }
  return true;
}

Status TokenCursor::Error(const std::string& message) const {
  return ErrorAt(message, Current().position);
}

}  // namespace prefrep
