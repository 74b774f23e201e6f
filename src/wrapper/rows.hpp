// The source-to-mediator boundary shared by every wrapper (§1.4, §2.1,
// §2.2.2 of the paper): the one place where a source's answer becomes
// mediator rows.
//
// "The wrapper applies the type maps in both directions and reformats the
// source's answer." Every wrapper hands its source values to a RowBuilder
// set up once per submit, one source row at a time, and takes the reply
// from finish(). The builder owns the row formats of the wrapper.hpp
// data-shape contract:
//   * env rows        struct(var: struct(attr: ...), ...), attributes in
//                     mediator names (each source column is resolved
//                     through its extent's TypeMap once per submit, not
//                     once per row);
//   * scalar rows     the projected value itself;
//   * struct rows     struct(f: ...) for a pushed struct(...) projection.
//
// It writes them in columns: the schema comes from the first row and
// every later row appends its cells straight to a vec::TableBuilder, so
// a shipped row is never built as a Value. The first cell the columnar
// rules decline (a nested value, a type fight inside a batch, a struct
// variable whose layout changes, a variable with no attributes) turns
// the reply into rows, exactly where vec::from_rows would have declined
// the same rows, and the builder goes on building rows.
//
// The module also holds the rest of what every wrapper shares at the
// boundary: the binding lookup, the `var.path = literal` conjunction
// extractor used by lookup-style sources, and the source-compute price
// reported as SubmitResult::compute_s.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/type_map.hpp"
#include "oql/ast.hpp"
#include "value/value.hpp"
#include "vec/batch.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::wrapper {

/// The binding the runtime supplied for `extent`. A missing binding is a
/// runtime bug (InternalError), not a refusal.
const ExtentBinding& binding_of(const BindingMap& bindings,
                                const std::string& extent);

/// Builds the mediator rows of one submit's answer.
class RowBuilder {
 public:
  /// Env rows; declare each variable with add_columns() or add_struct().
  static RowBuilder env();
  /// Bare-scalar projection rows: the first source value itself.
  static RowBuilder scalar();
  /// struct(f: ...) projection rows, fields in source-value order.
  static RowBuilder strct(std::vector<std::string> fields);

  /// Adds `var`, whose attributes are flat source values: each
  /// (position, source column) pair names the value at that position of
  /// the source row. Mediator names are resolved through `map` here.
  RowBuilder& add_columns(
      const std::string& var, const catalog::TypeMap& map,
      const std::vector<std::pair<size_t, std::string>>& columns);
  /// add_columns over positions 0..n-1.
  RowBuilder& add_columns(const std::string& var, const catalog::TypeMap& map,
                          const std::vector<std::string>& source_columns);
  /// Adds `var`, whose source row arrives as one struct value (a kv row,
  /// a whole document, a remote mediator's row). Its fields are renamed
  /// through `map`; rows whose names the map leaves alone pass through
  /// unchanged.
  RowBuilder& add_struct(const std::string& var, const catalog::TypeMap& map);

  /// Appends the mediator row of one positional source row.
  void append(const std::vector<Value>& values);
  /// Appends the env row of the source struct of a single add_struct()
  /// variable.
  void append_struct(const Value& source_row);
  /// Appends the env row of an env row in source names (a remote
  /// mediator's struct(var: row, ...)): each add_struct() variable's row
  /// is read by name and renamed.
  void append_env(const Value& source_env);

  /// The reply to the rows appended so far: Ok with the rows in columns,
  /// or as a bag with columns_declined set when the rules declined. The
  /// builder is spent.
  SubmitResult finish();

  /// One mediator row as a Value, not appended: what append(values)
  /// would add. (The doc wrapper evaluates pushed projections over its
  /// env rows.)
  Value from_values(const std::vector<Value>& values) const;
  /// One env row as a Value from the source struct of a single
  /// add_struct() variable, not appended.
  Value from_struct(const Value& source_row);

  bool is_env() const { return kind_ == Kind::Env; }

 private:
  enum class Kind { Env, Scalar, Struct };

  struct Var {
    std::string name;
    const catalog::TypeMap* map = nullptr;
    bool is_struct = false;
    /// add_columns: (source position, mediator attribute).
    std::vector<std::pair<size_t, std::string>> columns;
    /// add_struct: the last source field layout seen and its mediator
    /// names, re-resolved only when a row's layout differs.
    std::vector<std::string> layout_source;
    std::vector<std::string> layout_mediator;
    bool layout_renames = false;
    /// Columnar replies: this variable's columns in the schema.
    size_t first_col = 0;
    size_t width = 0;

    /// Re-resolves the mediator names when `fields`' layout differs
    /// from the last one seen; true when it had to.
    bool resolve(const std::vector<std::pair<std::string, Value>>& fields);
    Value rename(const Value& source_row);
  };

  explicit RowBuilder(Kind kind) : kind_(kind) {}

  Value from_env(const Value& source_env);
  /// Appends a struct variable's cells, renamed; false when the row
  /// breaks the schema's layout or a cell the column rules.
  bool append_struct_cells(Var& var, const Value& source_row);
  /// The one append path: `cells` writes the row's cells to the table,
  /// `row` builds it as a Value (the first row, and every row once the
  /// columnar rules declined).
  template <typename Cells, typename Row>
  void add(Cells cells, Row row);
  /// Starts the table from the first row; false when its layout is not
  /// one a table holds.
  bool start(const Value& first);

  Kind kind_;
  std::vector<Var> vars_;
  std::vector<std::string> fields_;  ///< Kind::Struct
  std::optional<vec::TableBuilder> table_;  ///< while columnar
  std::vector<Value> rows_;                 ///< once declined
  bool declined_ = false;
};

/// One `var.a.b... = literal` conjunct of a pushed selection.
struct PathEquality {
  std::vector<std::string> chain;  ///< mediator names, nearest var first
  Value value;
};

/// The attribute chain of `var.a.b...` (nearest the variable first);
/// nullopt when `expr` is not a path chain rooted at `var`.
std::optional<std::vector<std::string>> var_chain(const oql::ExprPtr& expr,
                                                  const std::string& var);

/// Flattens a conjunction of `var.path = literal` comparisons (either
/// operand order) into `out`. False on any other form: the grammar should
/// have kept those out, but §2.1 has the wrapper re-check at run time.
bool collect_path_equalities(const oql::ExprPtr& predicate,
                             const std::string& var,
                             std::vector<PathEquality>& out);

/// Source-compute price reported as SubmitResult::compute_s by wrappers
/// whose sources count their work, so the cost history can tell an
/// indexed probe from a full scan returning the same rows. Disabled by
/// default: virtual-latency experiments price transfer only.
struct ComputeCost {
  bool enabled = false;
  double base_s = 0;                ///< fixed per-query overhead
  double per_row_scanned_s = 1e-7;  ///< per candidate row or document
  double per_index_probe_s = 2e-6;  ///< per index descent

  /// Simulated seconds for one submit; 0 when disabled.
  double seconds(size_t rows_scanned, size_t index_probes) const;
};

}  // namespace disco::wrapper
