// A small SQL front end: single-block SELECT-FROM-WHERE queries are
// translated into the first-order queries of src/query, so SQL can drive
// every consistent-query-answering engine in the library.
//
// Supported grammar (keywords case-insensitive):
//
//   select   := SELECT select_list FROM from_list [WHERE condition]
//   select_list := '*' | column (',' column)*
//   column   := alias '.' attribute
//   from_list := relation [alias] (',' relation [alias])*
//   condition := disjunctions/conjunctions/NOT over comparisons:
//                operand op operand, op in = != <> < <= > >=
//   operand  := column | integer | 'name literal'
//
// Translation: each FROM entry contributes an atom whose terms are fresh
// variables "<alias>.<attr>"; the WHERE clause becomes a formula over
// those variables; selected columns stay free (the open-query answer),
// all other variables are existentially quantified. SELECT * keeps every
// column of every FROM entry free.
//
// Example (the paper's Q1 in SQL):
//   SELECT m.Salary, j.Salary FROM Mgr m, Mgr j
//   WHERE m.Name = 'Mary' AND j.Name = 'John' AND m.Salary < j.Salary
// A closed (boolean) query is obtained by selecting no columns via
// ParseSqlBoolean, which existentially quantifies everything.
//
// Errors: malformed text is a kParseError whose message names the
// position (byte offset) of the offending token. NOT and parentheses
// nested deeper than 1024 levels, counted together, are a parse error
// rather than a stack overflow. The tokenizer is the one the query
// parser uses (query/tokens.h).

#ifndef PREFREP_SQL_SQL_H_
#define PREFREP_SQL_SQL_H_

#include <memory>
#include <string_view>

#include "base/status.h"
#include "query/ast.h"
#include "relational/database.h"

namespace prefrep {

// Parses a SELECT statement into an open query whose free variables are
// the selected columns (named "alias.attribute").
Result<std::unique_ptr<Query>> ParseSql(const Database& db,
                                        std::string_view sql);

// Like ParseSql but closes the query: SELECT-list columns are ignored and
// every variable is existentially quantified ("does a row exist?").
Result<std::unique_ptr<Query>> ParseSqlBoolean(const Database& db,
                                               std::string_view sql);

}  // namespace prefrep

#endif  // PREFREP_SQL_SQL_H_
