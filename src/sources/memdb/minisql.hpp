// MiniSQL: the query language of the memdb data sources.
//
// This is deliberately *not* OQL — it is the "particular query language of
// the data source" (§1.1) that wrappers must translate into:
//
//   SELECT a, t.b AS x FROM t1, t2 u WHERE t1.k = u.k AND a > 10 AND ...
//
// Supported: projection lists with optional AS aliases or *, multiple
// comma-joined tables with optional aliases, and a boolean WHERE over
// comparisons between columns and literals (AND/OR/NOT, parentheses).
// No aggregates, no nesting — mirroring the paper's premise that data
// sources may be strictly weaker than the mediator's language, which is
// what makes capability grammars necessary.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "value/rules.hpp"
#include "value/value.hpp"

namespace disco::memdb {

/// Possibly-qualified column reference (`t.a` or `a`).
struct ColumnRef {
  std::string table;  ///< alias; empty when unqualified
  std::string column;

  std::string to_sql() const {
    return table.empty() ? column : table + "." + column;
  }
};

/// Scalar operand of a comparison.
struct Operand {
  enum class Kind { Column, Literal };
  Kind kind = Kind::Literal;
  ColumnRef column;  // when Column
  Value literal;     // when Literal

  static Operand col(ColumnRef ref) {
    return Operand{Kind::Column, std::move(ref), Value()};
  }
  static Operand lit(Value v) {
    return Operand{Kind::Literal, ColumnRef{}, std::move(v)};
  }
  std::string to_sql() const;
};

/// Comparisons are the mediator's (value/rules.hpp); this is their
/// MiniSQL spelling ("=", "<>", "<", ...).
const char* to_string(CmpOp op);

struct Pred;
using PredPtr = std::shared_ptr<const Pred>;

struct Pred {
  enum class Kind { Cmp, And, Or, Not };
  Kind kind = Kind::Cmp;
  // Cmp
  CmpOp op = CmpOp::Eq;
  Operand lhs, rhs;
  // And / Or / Not
  PredPtr left, right;  // Not uses left only

  static PredPtr cmp(CmpOp op, Operand lhs, Operand rhs);
  static PredPtr conj(PredPtr left, PredPtr right);
  static PredPtr disj(PredPtr left, PredPtr right);
  static PredPtr negate(PredPtr operand);

  std::string to_sql() const;
};

struct SelectItem {
  ColumnRef column;
  std::string alias;  ///< empty = column name
};

struct TableRef {
  std::string table;
  std::string alias;  ///< empty = table name
};

struct Query {
  bool star = false;
  std::vector<SelectItem> items;  // when !star
  std::vector<TableRef> tables;
  PredPtr where;  // may be null

  std::string to_sql() const;
};

/// The one DDL statement: CREATE INDEX name ON table (column). Sources
/// own their physical design (§1.1) — the mediator never issues this;
/// it is for the DBA loading the source (tests, benches, setup scripts).
struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::string column;

  std::string to_sql() const {
    return "CREATE INDEX " + index + " ON " + table + " (" + column + ")";
  }
};

/// A full MiniSQL statement: either a query or CREATE INDEX.
struct Statement {
  std::optional<Query> query;
  std::optional<CreateIndexStmt> create_index;
};

/// Parses MiniSQL text; throws ParseError / LexError.
Query parse_minisql(const std::string& text);

/// Like parse_minisql but also accepts CREATE INDEX.
Statement parse_statement(const std::string& text);

/// Splits a predicate into top-level AND conjuncts.
std::vector<PredPtr> conjuncts(const PredPtr& predicate);

}  // namespace disco::memdb
