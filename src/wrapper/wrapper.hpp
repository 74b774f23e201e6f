// The wrapper interface (§1.4, §3.2 of the paper).
//
// "A wrapper is an object with an interface that, when supplied with
//  information to access a repository and a query, returns objects to a
//  mediator which answer the query." (§2.1)
//
// Two methods, exactly as the paper describes:
//   * capabilities() — the submit-functionality method: returns the
//     grammar of logical expressions this wrapper accepts;
//   * submit() — executes one logical expression (mediator name space)
//     against a repository, applying the per-extent type maps in both
//     directions, and reformats the source's answer for the mediator.
//
// Data-shape contract (shared with physical/ and optimizer/):
//   * env-shaped expressions (get / select / join without a project on
//     top) return a bag of environment structs: struct(x: <row>) or
//     struct(x: <row>, y: <row>) with *mediator* attribute names inside;
//   * project-topped expressions return the bag of projected values.
// A reply carries that bag in one of two forms: as a vec::Table whose
// to_rows() are the rows (what every built-in wrapper sends, through
// wrapper/rows.hpp, whenever the rows fit the columnar rules of
// vec/batch.hpp), or as the bag itself. Callers that need the rows
// whatever the form call SubmitResult::bag().
//
// Availability is NOT the wrapper's concern: the runtime consults the
// network simulation before calling submit(); a wrapper is only ever
// invoked for a reachable repository.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/logical.hpp"
#include "catalog/catalog.hpp"
#include "catalog/type_map.hpp"
#include "grammar/capability.hpp"
#include "value/value.hpp"
#include "vec/batch.hpp"

namespace disco::wrapper {

/// Per-extent name-space information the runtime hands to submit().
struct ExtentBinding {
  std::string source_relation;       ///< relation name inside the source
  const catalog::TypeMap* map = nullptr;  ///< never null when bound
};

/// Extent name (mediator space) -> binding.
using BindingMap = std::unordered_map<std::string, ExtentBinding>;

struct SubmitResult {
  enum class Status {
    Ok,
    Refused,  ///< expression outside this wrapper's functionality
  };
  Status status = Status::Ok;
  /// When Ok and `table` is empty: the reply's rows, a bag.
  Value data;
  /// When Ok: the reply's rows in columns (see the data-shape contract);
  /// `data` is then null.
  std::optional<vec::Table> table;
  /// The wrapper built columns and the rules declined them part-way (a
  /// nested value, a type fight, a layout change): `data` holds rows.
  bool columns_declined = false;
  std::string detail;  ///< when Refused: why
  /// Source-side compute time in simulated seconds. The network model
  /// prices only bytes on the wire; a wrapper that knows how much work
  /// the source did (rows scanned, index probes) reports it here and the
  /// runtime adds it to the observed latency — this is what lets the
  /// cost history tell an indexed selection from a full scan even when
  /// both return the same rows. Zero (the default) keeps the old
  /// pure-transfer behaviour.
  double compute_s = 0;

  /// Rows in the reply, in either form.
  size_t rows() const {
    return table.has_value() ? table->rows() : data.size();
  }
  /// The reply as a bag, rebuilding the rows of a table.
  Value bag() const;

  static SubmitResult ok(Value data) {
    SubmitResult out;
    out.data = std::move(data);
    return out;
  }
  static SubmitResult ok(vec::Table table) {
    SubmitResult out;
    out.table = std::move(table);
    return out;
  }
  static SubmitResult refused(std::string detail) {
    SubmitResult out;
    out.status = Status::Refused;
    out.detail = std::move(detail);
    return out;
  }
};

class Wrapper {
 public:
  virtual ~Wrapper() = default;

  /// §3.2's submit-functionality call: the grammar of supported logical
  /// expressions.
  virtual grammar::Grammar capabilities() const = 0;

  /// Executes `expr` against `repository`. `bindings` carries the type
  /// map of every extent `expr` mentions.
  virtual SubmitResult submit(const catalog::Repository& repository,
                              const algebra::LogicalPtr& expr,
                              const BindingMap& bindings) = 0;

  /// Short human-readable kind ("minisql", "csv", "mediator").
  virtual std::string kind() const = 0;

  /// True when submit(expr) replies in columns whenever its rows fit the
  /// columnar rules (the built-in wrappers build replies through
  /// wrapper/rows.hpp). Explain's static vec walk reads it. Default: the
  /// reply is a bag of rows.
  virtual bool replies_in_columns(const algebra::LogicalPtr& expr) const {
    (void)expr;
    return false;
  }

  /// Source-side observability gauges, already namespaced by source kind
  /// (e.g. "memdb.rows_scanned"). Mediator::obs_snapshot() sums these
  /// across every registered wrapper, so a federation with several memdb
  /// wrappers reports one federation-wide memdb.* family. Default: none.
  virtual std::vector<std::pair<std::string, uint64_t>> stat_gauges() const {
    return {};
  }
};

/// Builds the BindingMap for `expr` from the catalog (looks up every get
/// node's extent). Throws CatalogError for unknown extents.
BindingMap bindings_for(const algebra::LogicalPtr& expr,
                        const catalog::Catalog& catalog);

}  // namespace disco::wrapper
