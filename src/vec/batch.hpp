// Columnar batch representation for flat struct bags (src/vec/).
//
// The runtime's operators are row-at-a-time over the variant `Value`
// tree; that caps filter/join/union-merge throughput well below what the
// hardware allows. This module adds the batch form the ROADMAP names as
// the enabler for million-row scenarios: typed column vectors with a
// null bitmap, grouped into fixed-capacity `ColumnBatch`es, with
// `Value`<->batch converters at the runtime boundaries. `Value` trees
// stay the interchange form at the edges (OQL eval, wrapper translation,
// the result cache, answers); batches only flow between operators inside
// one `physical::Runtime::run`.
//
// Three row shapes cover everything the runtime materializes:
//   * Env:    struct(var: struct(attr: scalar), ...) — operator inputs;
//   * Flat:   struct(name: scalar, ...)              — projected structs;
//   * Scalar: a bare scalar per row                  — projected paths.
//
// Conversion is strict so that a round trip is the identity: every row
// must share the first row's exact field-name layout, and a column's
// non-null cells must share one scalar kind (Int and Double are distinct
// kinds here, exactly as in `Value`). Explicit `nil` cells set the null
// bitmap; a *missing* field, a nested collection, or a layout mismatch
// makes `from_rows` decline (nullopt) and the caller stays on the row
// path — graceful fallback, never a lossy conversion. (Re-adding a
// missing field as nil would change the struct's field count, which
// `Value::compare` observes; declining preserves bag equality.)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "value/value.hpp"

namespace disco::vec {

/// Batch-execution knobs (Mediator::Options::vec). On by default: flat
/// rows run columnar, and the row path stays the reference semantics
/// (the differential tests' twin) and the fallback for every shape
/// from_rows declines.
struct VecOptions {
  bool enabled = true;
  /// Fixed batch capacity: converters and batch-producing operators cut
  /// their output into chunks of at most this many rows.
  size_t batch_rows = 4096;
};

/// Storage type of one column. Untyped means no non-null cell has been
/// seen yet (an all-nil column converts and round-trips as all nils).
/// The types follow ValueKind's order, Untyped in Null's place.
enum class ColType : uint8_t { Untyped, Bool, Int, Double, String };

const char* to_string(ColType type);

/// The Value kind a non-null cell of `type` has (Null for Untyped).
inline ValueKind kind_of(ColType type) {
  static_assert(static_cast<int>(ColType::String) ==
                static_cast<int>(ValueKind::String));
  return static_cast<ValueKind>(type);
}

/// One typed column vector plus a null bitmap. Append-only while being
/// built; treated as immutable once inside a ColumnBatch (batches share
/// columns by shared_ptr, so projection is O(1) per column).
class Column {
 public:
  ColType type() const { return type_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ > 0; }
  bool is_null(size_t row) const {
    return (nulls_[row >> 6] >> (row & 63)) & 1;
  }

  void append_null();
  /// Appends a scalar cell; false (column unchanged) when the value is
  /// not a scalar or does not match the column's settled type.
  bool append(const Value& value);
  /// Gather: appends `from`'s cell `row` (same settled type, or null).
  void append_cell(const Column& from, size_t row);

  /// Rebuilds the cell as a Value (nil for null bits).
  Value value_at(size_t row) const;
  /// The kind value_at(row) would have, without building it.
  ValueKind kind_at(size_t row) const {
    return is_null(row) ? ValueKind::Null : kind_of(type_);
  }
  /// A non-null numeric cell as a double.
  double number_at(size_t row) const {
    return type_ == ColType::Int ? static_cast<double>(ints_[row])
                                 : doubles_[row];
  }

  /// Total order over cells matching Value::compare on the rebuilt
  /// values (the scalar order of value/rules.hpp).
  int compare_cells(size_t row, const Column& other, size_t other_row) const;
  int compare_cell_value(size_t row, const Value& value) const;
  /// Equality-consistent hash (Int 1 and Double 1.0 collide on purpose).
  uint64_t hash_cell(size_t row) const;

  // Typed readers for kernels (valid for the matching type() only).
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }

  void reserve(size_t rows);
  /// Footprint under byte_size(Table)'s rules.
  size_t byte_size() const;

 private:
  bool settle(ColType type);
  void push_null_bit(bool null);

  ColType type_ = ColType::Untyped;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<uint64_t> nulls_;
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

enum class RowShape : uint8_t { Scalar, Flat, Env };

const char* to_string(RowShape shape);

/// Column naming. Env columns carry (var, name); Flat columns ("", name);
/// the Scalar shape has the single column ("", ""). Layout (shape plus
/// the exact name sequence) is what must agree for two tables to union
/// batch-wise; cell types are per-Column and may differ batch to batch.
struct Schema {
  struct Col {
    std::string var;
    std::string name;
  };

  RowShape shape = RowShape::Flat;
  std::vector<Col> columns;

  bool same_layout(const Schema& other) const;
  /// Index of (var, name), or -1.
  int index_of(std::string_view var, std::string_view name) const;
};

/// A fixed-capacity chunk of rows. `rows` is authoritative (a Flat batch
/// of empty structs has zero columns but still counts rows).
struct ColumnBatch {
  std::vector<std::shared_ptr<Column>> columns;
  size_t rows = 0;
};

/// A schema plus its batches — the unit operators exchange.
struct Table {
  Schema schema;
  std::vector<ColumnBatch> batches;

  size_t rows() const;
};

/// Approximate footprint in bytes, under Value::deep_size's rules: a
/// string cell counts its object plus its heap buffer only when it
/// spills the small-string buffer (string_heap_bytes). For cache
/// budgets, not allocator accounting.
size_t byte_size(const Table& table);

/// Accumulates rows into a Table under the conversion rules of the
/// header comment: the one place those rules live. from_rows feeds it
/// whole rows; the wrappers' row builder (wrapper/rows.hpp) derives the
/// schema from its first row and then appends cells straight from the
/// source, so a reply never exists as rows at all. A false return means
/// the rules decline: the caller abandons the builder, keeping rows()
/// (the rows completed so far) and continuing on the row path.
class TableBuilder {
 public:
  /// The layout `row` fixes for a table: nullopt when the row is not
  /// flat (nested collections, mixed struct/scalar fields, an env var
  /// with zero attributes).
  static std::optional<Schema> schema_of(const Value& row);

  /// Batches hold at most `batch_rows` rows; `expected_rows` (a hint)
  /// sizes each batch's columns up front.
  TableBuilder(Schema schema, size_t batch_rows, size_t expected_rows = 0);

  const Schema& schema() const { return table_.schema; }

  /// One whole row: false when it does not match the schema's layout or
  /// a cell fights its column's type in the current batch.
  bool append_row(const Value& row);
  /// Cell-wise writers append column `col` of the current row (they keep
  /// the layout themselves), then close the row with end_row(). False
  /// when the cell is not a scalar or fights its column's type.
  bool append(size_t col, const Value& cell) {
    return open().columns[col]->append(cell);
  }
  void end_row();

  /// The completed rows rebuilt as Values (a cell-wise row that declined
  /// half-way is not among them).
  std::vector<Value> rows() const;
  Table finish() &&;

 private:
  ColumnBatch& open();

  Table table_;
  std::optional<ColumnBatch> open_;  ///< the batch being filled
  size_t batch_rows_;
  size_t expected_rows_;
  size_t rows_ = 0;
};

/// Converts a bag's rows to columns, cut into batches of at most
/// `batch_rows` rows. nullopt when any row is not of the common flat
/// layout (see the header comment for the exact rules); the caller then
/// keeps the row path.
std::optional<Table> from_rows(const std::vector<Value>& rows,
                               size_t batch_rows);

/// Rebuilds row `row` of `batch` as a Value (exact inverse of from_rows
/// for the row that produced it).
Value row_at(const Schema& schema, const ColumnBatch& batch, size_t row);

/// Rebuilds every row. to_rows(from_rows(rows)) == rows, elementwise.
std::vector<Value> to_rows(const Table& table);

/// Lexicographic row compare / equality-consistent row hash across all
/// columns — matches Value::compare / equality of the rebuilt rows for
/// tables sharing one layout.
int compare_rows(const ColumnBatch& a, size_t row_a, const ColumnBatch& b,
                 size_t row_b);
uint64_t hash_row(const ColumnBatch& batch, size_t row);

}  // namespace disco::vec
