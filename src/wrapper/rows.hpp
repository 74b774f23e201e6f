// The source-to-mediator boundary shared by every wrapper (§1.4, §2.1,
// §2.2.2 of the paper): the one place where a source's answer becomes
// mediator rows.
//
// "The wrapper applies the type maps in both directions and reformats the
// source's answer." Every wrapper hands its source values to a RowBuilder
// set up once per submit; the builder owns the row formats of the
// wrapper.hpp data-shape contract:
//   * env rows        struct(var: struct(attr: ...), ...), attributes in
//                     mediator names (each source column is resolved
//                     through its extent's TypeMap once per submit, not
//                     once per row);
//   * scalar rows     the projected value itself;
//   * struct rows     struct(f: ...) for a pushed struct(...) projection.
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

  /// One mediator row from one positional source row; the rvalue
  /// overload moves the values out.
  Value from_values(std::vector<Value>&& values) const;
  Value from_values(const std::vector<Value>& values) const;
  /// One env row from the source struct of a single add_struct()
  /// variable.
  Value from_struct(const Value& source_row);
  /// One env row from an env row in source names (a remote mediator's
  /// struct(var: row, ...)): each add_struct() variable's row is read by
  /// name and renamed.
  Value from_env(const Value& source_env);

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

    Value rename(const Value& source_row);
  };

  explicit RowBuilder(Kind kind) : kind_(kind) {}

  template <typename Take>
  Value build(Take take) const;

  Kind kind_;
  std::vector<Var> vars_;
  std::vector<std::string> fields_;  ///< Kind::Struct
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
