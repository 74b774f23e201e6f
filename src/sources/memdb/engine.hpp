// MiniSQL execution engine.
//
// A small but real relational executor: per-table filter pushdown,
// index-aware selection (point / batched-point / range predicates route
// through a table's ordered secondary indexes with a residual re-check),
// left-deep joins with three physical algorithms (nested-loop, hash,
// sort-merge) selected automatically or forced for experiments, and
// projection. This is the "server" side of the wrapper boundary; the
// mediator never calls it directly.
//
// Comparisons follow the mediator's rule (value/rules.hpp): ordering a
// nil or mixed-kind pair raises. Evaluation order is fixed, so a clause
// raises on the row the mediator would: each table is scanned in row
// order against the conjuncts that mention only it (FROM order), then
// each join step matches pairs on its first equi conjunct (every pair
// when it has none), as the mediator's hash join does, and checks the
// other conjuncts on each matched pair, left row major, in clause order. An index probe skips
// rows, so it serves only a leading conjunct that, like every conjunct
// before it, cannot raise — by static operand kinds and the table's nil
// counts.
#pragma once

#include <string>
#include <vector>

#include "sources/memdb/database.hpp"
#include "sources/memdb/minisql.hpp"

namespace disco::memdb {

/// Output column: the alias of the table it came from plus its name.
/// Wrappers use the alias to regroup joined rows into per-variable
/// structs for the mediator.
struct OutColumn {
  std::string alias;
  std::string name;
};

struct ResultSet {
  std::vector<OutColumn> columns;
  std::vector<Row> rows;
};

enum class JoinStrategy { Auto, NestedLoop, Hash, Merge };

class Engine {
 public:
  /// Read-only engine (the wrapper path): SELECT only.
  explicit Engine(const Database* database) : database_(database) {}
  /// Read-write engine: additionally accepts CREATE INDEX.
  explicit Engine(Database* database)
      : database_(database), mutable_database_(database) {}

  /// Forces a join algorithm (Auto picks hash for equi-joins with both
  /// sides over ~8 rows, nested-loop otherwise).
  void set_join_strategy(JoinStrategy strategy) { strategy_ = strategy; }

  /// When false, every selection scans even when an index applies — the
  /// reference path for the indexed-vs-scan differential tests/benches.
  void set_use_indexes(bool use) { use_indexes_ = use; }

  ResultSet execute(const Query& query);
  /// Parses and runs one statement. CREATE INDEX needs the read-write
  /// constructor (throws ExecutionError otherwise) and returns an empty
  /// ResultSet.
  ResultSet execute_sql(const std::string& text);

  struct Stats {
    size_t rows_scanned = 0;   ///< rows examined by scans (candidates)
    size_t rows_matched = 0;   ///< scan candidates that passed all preds
    size_t rows_returned = 0;  ///< rows in the final result set
    size_t index_hits = 0;     ///< candidate rows produced by an index
    size_t index_probes = 0;   ///< index lookups (point probes + ranges)
    size_t rows_joined = 0;
    size_t hash_joins = 0;
    size_t merge_joins = 0;
    size_t nested_loop_joins = 0;
  };
  /// Counters for the most recent execute()/execute_sql() call. The
  /// reset-per-execute contract is pinned by tests: every call starts
  /// from zeroes, so a caller (the wrapper) reads one query's numbers,
  /// never an accumulation — accumulate across queries on the caller's
  /// side if needed.
  const Stats& last_stats() const { return stats_; }

 private:
  struct Relation {
    std::vector<OutColumn> columns;
    std::vector<Row> rows;
  };

  Relation scan(const TableRef& ref,
                const std::vector<PredPtr>& single_table_preds);
  Relation join(Relation left, Relation right,
                const std::vector<PredPtr>& applicable);

  const Database* database_;
  Database* mutable_database_ = nullptr;
  JoinStrategy strategy_ = JoinStrategy::Auto;
  bool use_indexes_ = true;
  Stats stats_;
};

}  // namespace disco::memdb
