// Parser for the textual first-order query language.
//
// Syntax (keywords are case-insensitive):
//
//   formula  := ('exists' | 'forall') var (',' var)* '.' formula
//             | or_expr
//   or_expr  := and_expr ('or' and_expr)*
//   and_expr := unary ('and' unary)*
//   unary    := 'not' unary | primary
//   primary  := 'true' | 'false' | '(' formula ')' | quantified
//             | Relation '(' term (',' term)* ')'
//             | term op term                       with op in = != < <= > >=
//   term     := identifier | integer | 'quoted name'
//
// Term identifiers starting with an upper-case letter are name constants
// (as in the paper: Mgr(Mary, x1, y1, z1)); identifiers starting with a
// lower-case letter or '_' are variables. Quoted strings are always name
// constants (use them for names that do not start with a capital).
//
// Example (the paper's query Q1):
//   exists x1,y1,z1,x2,y2,z2 . Mgr(Mary,x1,y1,z1) and Mgr(John,x2,y2,z2)
//                              and y1 < y2

#ifndef PREFREP_QUERY_PARSER_H_
#define PREFREP_QUERY_PARSER_H_

#include <memory>
#include <string_view>

#include "base/status.h"
#include "query/ast.h"

namespace prefrep {

// Parses `text` into a query AST. Errors carry the offending position.
// Nesting (negations, parentheses and quantifier bodies, counted
// together) deeper than 1024 levels is a parse error, not a crash.
Result<std::unique_ptr<Query>> ParseQuery(std::string_view text);

}  // namespace prefrep

#endif  // PREFREP_QUERY_PARSER_H_
