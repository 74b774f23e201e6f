// memdb: the relational engine that stands in for the paper's autonomous
// data sources (Postgres behind WrapperPostgres, §2.1). It is a complete,
// self-contained system with its own schema, its own query language
// (MiniSQL, minisql.hpp) and its own executor (engine.hpp); DISCO talks to
// it only through a wrapper that translates logical algebra into MiniSQL
// text — exactly the translation burden the paper assigns to the wrapper
// implementor (§1.4).
#pragma once

#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "sources/memdb/index.hpp"
#include "value/value.hpp"

namespace disco::memdb {

enum class ColumnType { Int, Real, Text, Bool };

const char* to_string(ColumnType type);

/// The kind of a non-nil cell (Real columns also accept Ints, which
/// order alike).
ValueKind value_kind(ColumnType type);

struct Column {
  std::string name;
  ColumnType type;
};

using Row = std::vector<Value>;

class Table {
 public:
  Table() = default;
  Table(std::string name, std::vector<Column> columns);

  // Movable (Database stores tables by value), not copyable: secondary
  // indexes hold row positions that only make sense for one row vector.
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }
  /// Index of `column`, or -1.
  int column_index(const std::string& column) const;

  /// Appends a row after checking arity and column types (null allowed
  /// anywhere, int accepted for Real columns). Throws TypeError.
  /// Maintains every secondary index. Thread-safe against readers that
  /// hold mutex() shared (the MiniSQL engine does).
  void insert(Row row);
  void insert_all(std::vector<Row> rows);

  /// Deletes row `row` (a position in rows()). O(1): the last row swaps
  /// into the hole and its index entries are re-pointed, so row ids stay
  /// dense. Throws ExecutionError when out of range.
  void remove_row(size_t row);
  /// Replaces row `row` in place (same checks as insert), re-keying the
  /// indexes whose column changed.
  void update_row(size_t row, Row values);

  const std::vector<Row>& rows() const { return rows_; }
  size_t row_count() const { return rows_.size(); }
  /// Rows holding nil in column position `column`. Kept on insert,
  /// update and delete; the engine reads it to know which ordering
  /// predicates cannot raise.
  size_t nil_count(size_t column) const { return nil_counts_[column]; }

  /// Creates an ordered secondary index over `column` and backfills it
  /// from the existing rows. Throws CatalogError on a duplicate index
  /// name or unknown column.
  OrderedIndex& create_index(const std::string& index_name,
                             const std::string& column);
  const std::vector<std::unique_ptr<OrderedIndex>>& indexes() const {
    return indexes_;
  }
  /// The first index over column position `column`, or null.
  const OrderedIndex* index_on(size_t column) const;

  /// Reader/writer gate: mutators above take it exclusive; the MiniSQL
  /// engine holds it shared for a whole query (its Relation references
  /// rows_ throughout execution). Exposed so storms and future sources
  /// can coordinate whole multi-table transactions.
  std::shared_mutex& mutex() const { return *mutex_; }

 private:
  void check_row(const Row& row) const;
  /// Adds `delta` to the nil count of every column where `row` is nil.
  void count_nils(const Row& row, int delta);

  std::string name_;
  std::vector<Column> columns_;
  std::vector<Row> rows_;
  std::vector<size_t> nil_counts_;
  std::vector<std::unique_ptr<OrderedIndex>> indexes_;
  /// Behind a pointer so Table stays movable (Database rehashes).
  mutable std::unique_ptr<std::shared_mutex> mutex_ =
      std::make_unique<std::shared_mutex>();
};

}  // namespace disco::memdb
