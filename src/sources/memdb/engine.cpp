#include "sources/memdb/engine.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <shared_mutex>
#include <unordered_map>

#include "common/error.hpp"
#include "value/rules.hpp"

namespace disco::memdb {

namespace {

/// Resolves a column reference against a layout. Unqualified names must be
/// unambiguous. Returns -1 when the reference does not belong to this
/// layout at all (so callers can classify predicates).
int find_column(const std::vector<OutColumn>& layout, const ColumnRef& ref) {
  int found = -1;
  for (size_t i = 0; i < layout.size(); ++i) {
    const OutColumn& col = layout[i];
    if (col.name != ref.column) continue;
    if (!ref.table.empty() && col.alias != ref.table) continue;
    if (found != -1) {
      throw ExecutionError("MiniSQL: ambiguous column '" + ref.to_sql() +
                           "'");
    }
    found = static_cast<int>(i);
  }
  return found;
}

void collect_refs(const PredPtr& pred, std::vector<const ColumnRef*>& out) {
  if (pred == nullptr) return;
  switch (pred->kind) {
    case Pred::Kind::Cmp:
      if (pred->lhs.kind == Operand::Kind::Column) out.push_back(&pred->lhs.column);
      if (pred->rhs.kind == Operand::Kind::Column) out.push_back(&pred->rhs.column);
      return;
    case Pred::Kind::Not:
      collect_refs(pred->left, out);
      return;
    case Pred::Kind::And:
    case Pred::Kind::Or:
      collect_refs(pred->left, out);
      collect_refs(pred->right, out);
      return;
  }
}

/// True when every column the predicate mentions resolves in `layout`.
bool covered_by(const PredPtr& pred, const std::vector<OutColumn>& layout) {
  std::vector<const ColumnRef*> refs;
  collect_refs(pred, refs);
  for (const ColumnRef* ref : refs) {
    if (find_column(layout, *ref) == -1) return false;
  }
  return true;
}

Value operand_value(const Operand& operand,
                    const std::vector<OutColumn>& layout, const Row& row) {
  if (operand.kind == Operand::Kind::Literal) return operand.literal;
  int index = find_column(layout, operand.column);
  if (index == -1) {
    throw ExecutionError("MiniSQL: unknown column '" +
                         operand.column.to_sql() + "'");
  }
  return row[static_cast<size_t>(index)];
}

bool eval_pred(const PredPtr& pred, const std::vector<OutColumn>& layout,
               const Row& row) {
  switch (pred->kind) {
    case Pred::Kind::Cmp:
      return comparison_holds(pred->op, operand_value(pred->lhs, layout, row),
                              operand_value(pred->rhs, layout, row));
    case Pred::Kind::And:
      return eval_pred(pred->left, layout, row) &&
             eval_pred(pred->right, layout, row);
    case Pred::Kind::Or:
      return eval_pred(pred->left, layout, row) ||
             eval_pred(pred->right, layout, row);
    case Pred::Kind::Not:
      return !eval_pred(pred->left, layout, row);
  }
  return false;
}

/// What a column can hold: cells of one kind, plus nil when `nullable`.
struct ColumnDomain {
  ValueKind kind = ValueKind::Null;
  bool nullable = true;
};

/// True when `pred` cannot raise on any row of `layout`: every ordering
/// comparison has non-nil, mutually orderable operands by static kind.
bool cannot_raise(const PredPtr& pred, const std::vector<OutColumn>& layout,
                  const std::vector<ColumnDomain>& domains) {
  switch (pred->kind) {
    case Pred::Kind::Cmp: {
      if (!is_ordering(pred->op)) return true;
      auto domain = [&](const Operand& operand) {
        if (operand.kind == Operand::Kind::Literal) {
          return ColumnDomain{operand.literal.kind(), false};
        }
        const int index = find_column(layout, operand.column);
        return index == -1 ? ColumnDomain{ValueKind::Null, true}
                           : domains[static_cast<size_t>(index)];
      };
      const ColumnDomain lhs = domain(pred->lhs);
      const ColumnDomain rhs = domain(pred->rhs);
      return !lhs.nullable && !rhs.nullable && orderable(lhs.kind, rhs.kind);
    }
    case Pred::Kind::And:
    case Pred::Kind::Or:
      return cannot_raise(pred->left, layout, domains) &&
             cannot_raise(pred->right, layout, domains);
    case Pred::Kind::Not:
      return cannot_raise(pred->left, layout, domains);
  }
  return false;
}

/// The leading conjuncts that cannot raise. Conjuncts short-circuit in
/// clause order, so a row that fails one of these is never checked
/// against a later conjunct: skipping it cannot hide an error.
std::vector<PredPtr> leading_exact(const std::vector<PredPtr>& preds,
                                   const std::vector<OutColumn>& layout,
                                   const std::vector<ColumnDomain>& domains) {
  std::vector<PredPtr> out;
  for (const PredPtr& pred : preds) {
    if (!cannot_raise(pred, layout, domains)) break;
    out.push_back(pred);
  }
  return out;
}

/// Detects an equi-join conjunct linking `left` and `right`; returns the
/// column indexes (left_index, right_index).
std::optional<std::pair<int, int>> equi_key(
    const PredPtr& pred, const std::vector<OutColumn>& left,
    const std::vector<OutColumn>& right) {
  if (pred->kind != Pred::Kind::Cmp || pred->op != CmpOp::Eq) {
    return std::nullopt;
  }
  if (pred->lhs.kind != Operand::Kind::Column ||
      pred->rhs.kind != Operand::Kind::Column) {
    return std::nullopt;
  }
  int ll = find_column(left, pred->lhs.column);
  int rr = find_column(right, pred->rhs.column);
  if (ll != -1 && rr != -1) return std::make_pair(ll, rr);
  int lr = find_column(left, pred->rhs.column);
  int rl = find_column(right, pred->lhs.column);
  if (lr != -1 && rl != -1) return std::make_pair(lr, rl);
  return std::nullopt;
}

Row concat(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// --- access-path classification --------------------------------------------
//
// A per-table conjunct can drive an index three ways:
//   * point:  col = literal (either orientation),
//   * batch:  an OR chain whose every disjunct is col = literal on the
//             SAME column — the bind join's key disjunction becomes a
//             batch of point probes instead of a per-row OR evaluation,
//   * range:  col </<=/>/>= literal (either orientation, op flipped).
// The index returns a candidate superset for that one conjunct; every
// conjunct is then re-checked on each candidate (residual re-check), so
// classification can never change answers — only skip non-candidates.
// Index comparator == eval_pred comparator (Value::compare), so the
// candidate set is exact for the chosen conjunct, nulls and mixed
// Int/Double keys included. Skipping rows is exact only while no
// conjunct can raise on a skipped row, so Engine::scan offers the index
// only the conjuncts leading_exact returns.

/// A `column op literal` comparison in either operand order, normalized
/// so the column is on the left (5 < c becomes c > 5).
struct Atom {
  int column = -1;
  CmpOp op = CmpOp::Eq;
  Value literal;
};

std::optional<Atom> column_atom(const PredPtr& pred,
                                const std::vector<OutColumn>& layout) {
  if (pred->kind != Pred::Kind::Cmp) return std::nullopt;
  const bool flipped = pred->lhs.kind == Operand::Kind::Literal;
  const Operand& col = flipped ? pred->rhs : pred->lhs;
  const Operand& lit = flipped ? pred->lhs : pred->rhs;
  if (col.kind != Operand::Kind::Column ||
      lit.kind != Operand::Kind::Literal) {
    return std::nullopt;
  }
  const int pos = find_column(layout, col.column);
  if (pos == -1) return std::nullopt;
  return Atom{pos, flipped ? mirrored(pred->op) : pred->op, lit.literal};
}

/// Collects the keys of an OR chain of same-column equalities; false
/// when any disjunct breaks the shape.
bool batch_keys(const PredPtr& pred, const std::vector<OutColumn>& layout,
                int* column, std::vector<Value>* keys) {
  if (pred->kind == Pred::Kind::Or) {
    return batch_keys(pred->left, layout, column, keys) &&
           batch_keys(pred->right, layout, column, keys);
  }
  std::optional<Atom> atom = column_atom(pred, layout);
  if (!atom.has_value() || atom->op != CmpOp::Eq) return false;
  if (*column == -1) {
    *column = atom->column;
  } else if (*column != atom->column) {
    return false;
  }
  keys->push_back(std::move(atom->literal));
  return true;
}

void tighten_low(OrderedIndex::Bound* bound, const Value& value,
                 bool inclusive) {
  if (!bound->present) {
    *bound = OrderedIndex::Bound::at(value, inclusive);
    return;
  }
  int c = Value::compare(value, bound->value);
  if (c > 0) {
    *bound = OrderedIndex::Bound::at(value, inclusive);
  } else if (c == 0 && bound->inclusive && !inclusive) {
    bound->inclusive = false;
  }
}

void tighten_high(OrderedIndex::Bound* bound, const Value& value,
                  bool inclusive) {
  if (!bound->present) {
    *bound = OrderedIndex::Bound::at(value, inclusive);
    return;
  }
  int c = Value::compare(value, bound->value);
  if (c < 0) {
    *bound = OrderedIndex::Bound::at(value, inclusive);
  } else if (c == 0 && bound->inclusive && !inclusive) {
    bound->inclusive = false;
  }
}

/// Candidate row ids for the best indexable conjunct (point beats batch
/// beats range), or nullopt when nothing qualifies. Ids come back sorted
/// ascending so indexed output preserves scan order.
std::optional<std::vector<size_t>> index_candidates(
    const Table& table, const std::vector<OutColumn>& layout,
    const std::vector<PredPtr>& preds, Engine::Stats* stats) {
  for (const PredPtr& pred : preds) {
    std::optional<Atom> atom = column_atom(pred, layout);
    if (!atom.has_value() || atom->op != CmpOp::Eq) continue;
    const OrderedIndex* index =
        table.index_on(static_cast<size_t>(atom->column));
    if (index == nullptr) continue;
    std::vector<size_t> ids;
    index->probe(atom->literal, &ids);
    ++stats->index_probes;
    return ids;  // equal-key runs are stored in row-id order
  }
  for (const PredPtr& pred : preds) {
    if (pred->kind != Pred::Kind::Or) continue;
    int column = -1;
    std::vector<Value> keys;
    if (!batch_keys(pred, layout, &column, &keys)) continue;
    const OrderedIndex* index = table.index_on(static_cast<size_t>(column));
    if (index == nullptr) continue;
    std::vector<size_t> ids;
    for (const Value& key : keys) index->probe(key, &ids);
    stats->index_probes += keys.size();
    // Unify-equal keys (1 vs 1.0) can probe the same run twice; a scan
    // emits such rows once, so the candidate set must too.
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  }
  // Range: fold every range conjunct on the same indexed column into the
  // tightest interval; the first such column (conjunct order) wins.
  int range_column = -1;
  OrderedIndex::Bound low, high;
  for (const PredPtr& pred : preds) {
    std::optional<Atom> atom = column_atom(pred, layout);
    if (!atom.has_value() || !is_ordering(atom->op)) continue;
    if (table.index_on(static_cast<size_t>(atom->column)) == nullptr) {
      continue;
    }
    if (range_column == -1) range_column = atom->column;
    if (range_column != atom->column) continue;
    switch (atom->op) {
      case CmpOp::Gt:
        tighten_low(&low, atom->literal, false);
        break;
      case CmpOp::Ge:
        tighten_low(&low, atom->literal, true);
        break;
      case CmpOp::Lt:
        tighten_high(&high, atom->literal, false);
        break;
      case CmpOp::Le:
        tighten_high(&high, atom->literal, true);
        break;
      default:
        break;
    }
  }
  if (range_column != -1) {
    const OrderedIndex* index =
        table.index_on(static_cast<size_t>(range_column));
    std::vector<size_t> ids;
    index->range(low, high, &ids);
    ++stats->index_probes;
    std::sort(ids.begin(), ids.end());  // key order -> row order
    return ids;
  }
  return std::nullopt;
}

}  // namespace

ResultSet Engine::execute_sql(const std::string& text) {
  Statement statement = parse_statement(text);
  if (statement.create_index.has_value()) {
    stats_ = Stats{};
    if (mutable_database_ == nullptr) {
      throw ExecutionError(
          "MiniSQL: CREATE INDEX needs a read-write engine");
    }
    const CreateIndexStmt& stmt = *statement.create_index;
    mutable_database_->table(stmt.table).create_index(stmt.index,
                                                      stmt.column);
    return ResultSet{};
  }
  return execute(*statement.query);
}

Engine::Relation Engine::scan(const TableRef& ref,
                              const std::vector<PredPtr>& preds) {
  const Table& table = database_->table(ref.table);
  Relation out;
  std::vector<ColumnDomain> domains;
  out.columns.reserve(table.columns().size());
  for (size_t i = 0; i < table.columns().size(); ++i) {
    const Column& col = table.columns()[i];
    out.columns.push_back(OutColumn{ref.alias, col.name});
    domains.push_back(
        ColumnDomain{value_kind(col.type), table.nil_count(i) > 0});
  }

  // Residual re-check: every conjunct runs on every candidate, whether
  // the candidate came from a full scan or an index.
  auto keep = [&](const Row& row) {
    ++stats_.rows_scanned;
    for (const PredPtr& pred : preds) {
      if (!eval_pred(pred, out.columns, row)) return false;
    }
    ++stats_.rows_matched;
    return true;
  };

  // Without an exact conjunct to probe, the scan visits every row in
  // table order, so it raises at the row the mediator would.
  std::optional<std::vector<size_t>> candidates;
  if (use_indexes_ && !preds.empty() && !table.indexes().empty()) {
    candidates = index_candidates(
        table, out.columns, leading_exact(preds, out.columns, domains),
        &stats_);
  }
  if (candidates.has_value()) {
    stats_.index_hits += candidates->size();
    for (size_t id : *candidates) {
      const Row& row = table.rows()[id];
      if (keep(row)) out.rows.push_back(row);
    }
  } else {
    for (const Row& row : table.rows()) {
      if (keep(row)) out.rows.push_back(row);
    }
  }
  return out;
}

Engine::Relation Engine::join(Relation left, Relation right,
                              const std::vector<PredPtr>& applicable) {
  // Split the applicable predicates into one equi-key (if any) driving the
  // physical algorithm, and residual predicates evaluated on each
  // key-matched pair. This is the mediator's hash join split, so the
  // residual sees the same pairs in the same order and raises alike.
  std::optional<std::pair<int, int>> key;
  std::vector<PredPtr> residual;
  for (const PredPtr& pred : applicable) {
    if (!key.has_value()) {
      if (auto k = equi_key(pred, left.columns, right.columns)) {
        key = k;
        continue;
      }
    }
    residual.push_back(pred);
  }

  Relation out;
  out.columns = left.columns;
  out.columns.insert(out.columns.end(), right.columns.begin(),
                     right.columns.end());

  JoinStrategy strategy = strategy_;
  if (strategy == JoinStrategy::Auto) {
    bool big = left.rows.size() > 8 && right.rows.size() > 8;
    strategy = (key.has_value() && big) ? JoinStrategy::Hash
                                        : JoinStrategy::NestedLoop;
  }
  if (!key.has_value()) strategy = JoinStrategy::NestedLoop;

  auto emit = [&](const Row& l, const Row& r) {
    Row candidate = concat(l, r);
    for (const PredPtr& pred : residual) {
      if (!eval_pred(pred, out.columns, candidate)) return;
    }
    ++stats_.rows_joined;
    out.rows.push_back(std::move(candidate));
  };

  switch (strategy) {
    case JoinStrategy::NestedLoop: {
      ++stats_.nested_loop_joins;
      // Without an equi key the join predicate (if any) is in `residual`.
      if (key.has_value()) {
        // Forced nested loop still honours the equi predicate.
        for (const Row& l : left.rows) {
          for (const Row& r : right.rows) {
            if (Value::compare(l[static_cast<size_t>(key->first)],
                               r[static_cast<size_t>(key->second)]) != 0) {
              continue;
            }
            emit(l, r);
          }
        }
        break;
      }
      for (const Row& l : left.rows) {
        for (const Row& r : right.rows) emit(l, r);
      }
      break;
    }
    case JoinStrategy::Hash: {
      ++stats_.hash_joins;
      std::unordered_map<uint64_t, std::vector<const Row*>> buckets;
      for (const Row& r : right.rows) {
        buckets[r[static_cast<size_t>(key->second)].hash()].push_back(&r);
      }
      for (const Row& l : left.rows) {
        const Value& k = l[static_cast<size_t>(key->first)];
        auto it = buckets.find(k.hash());
        if (it == buckets.end()) continue;
        for (const Row* r : it->second) {
          if ((*r)[static_cast<size_t>(key->second)] != k) continue;
          emit(l, *r);
        }
      }
      break;
    }
    case JoinStrategy::Merge: {
      ++stats_.merge_joins;
      const size_t lk = static_cast<size_t>(key->first);
      const size_t rk = static_cast<size_t>(key->second);
      // Sort row ids by key and pair the equal-key runs, then emit the
      // pairs in input order (left row major) so the residual sees them
      // in the order the other strategies do.
      auto sorted_ids = [](const std::vector<Row>& rows, size_t col) {
        std::vector<size_t> ids(rows.size());
        std::iota(ids.begin(), ids.end(), size_t{0});
        std::sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
          return Value::compare(rows[a][col], rows[b][col]) < 0;
        });
        return ids;
      };
      const std::vector<size_t> ls = sorted_ids(left.rows, lk);
      const std::vector<size_t> rs = sorted_ids(right.rows, rk);
      auto cmp = [&](size_t a, size_t b) {
        return Value::compare(left.rows[ls[a]][lk], right.rows[rs[b]][rk]);
      };
      std::vector<std::pair<size_t, size_t>> pairs;
      size_t i = 0;
      size_t j = 0;
      while (i < ls.size() && j < rs.size()) {
        const int c = cmp(i, j);
        if (c < 0) {
          ++i;
        } else if (c > 0) {
          ++j;
        } else {
          // Equal-key runs: cross product of the two runs.
          size_t i_end = i;
          while (i_end < ls.size() && cmp(i_end, j) == 0) ++i_end;
          size_t j_end = j;
          while (j_end < rs.size() && cmp(i, j_end) == 0) ++j_end;
          for (size_t a = i; a < i_end; ++a) {
            for (size_t b = j; b < j_end; ++b) {
              pairs.emplace_back(ls[a], rs[b]);
            }
          }
          i = i_end;
          j = j_end;
        }
      }
      std::sort(pairs.begin(), pairs.end());
      for (const auto& [a, b] : pairs) emit(left.rows[a], right.rows[b]);
      break;
    }
    case JoinStrategy::Auto:
      throw InternalError("Auto strategy must be resolved before joining");
  }
  return out;
}

ResultSet Engine::execute(const Query& query) {
  // Pinned contract (see last_stats()): every execute starts from a
  // zeroed Stats, so callers always read exactly one query's counters.
  stats_ = Stats{};
  internal_check(!query.tables.empty(), "query without tables");

  // Duplicate alias check.
  std::set<std::string> aliases;
  for (const TableRef& ref : query.tables) {
    if (!aliases.insert(ref.alias).second) {
      throw ExecutionError("MiniSQL: duplicate table alias '" + ref.alias +
                           "'");
    }
  }

  // Reader gate: hold every referenced table shared for the whole query
  // (Relations alias table rows until materialized). Deduped — a self
  // join must not lock the same mutex twice — and address-ordered.
  std::vector<const Table*> to_lock;
  for (const TableRef& ref : query.tables) {
    const Table* table = &database_->table(ref.table);
    if (std::find(to_lock.begin(), to_lock.end(), table) == to_lock.end()) {
      to_lock.push_back(table);
    }
  }
  std::sort(to_lock.begin(), to_lock.end());
  std::vector<std::shared_lock<std::shared_mutex>> guards;
  guards.reserve(to_lock.size());
  for (const Table* table : to_lock) guards.emplace_back(table->mutex());

  std::vector<PredPtr> all_conjuncts = conjuncts(query.where);
  std::vector<bool> used(all_conjuncts.size(), false);

  // Scan each table with the conjuncts that touch only that table.
  std::vector<Relation> relations;
  relations.reserve(query.tables.size());
  for (const TableRef& ref : query.tables) {
    const Table& table = database_->table(ref.table);
    std::vector<OutColumn> layout;
    for (const Column& col : table.columns()) {
      layout.push_back(OutColumn{ref.alias, col.name});
    }
    std::vector<PredPtr> local;
    for (size_t i = 0; i < all_conjuncts.size(); ++i) {
      if (used[i]) continue;
      if (covered_by(all_conjuncts[i], layout)) {
        local.push_back(all_conjuncts[i]);
        used[i] = true;
      }
    }
    relations.push_back(scan(ref, local));
  }

  // Left-deep joins in FROM order; each step consumes the conjuncts that
  // become evaluable once the next table joins in.
  Relation acc = std::move(relations.front());
  for (size_t t = 1; t < relations.size(); ++t) {
    std::vector<OutColumn> combined = acc.columns;
    combined.insert(combined.end(), relations[t].columns.begin(),
                    relations[t].columns.end());
    std::vector<PredPtr> applicable;
    for (size_t i = 0; i < all_conjuncts.size(); ++i) {
      if (used[i]) continue;
      if (covered_by(all_conjuncts[i], combined)) {
        applicable.push_back(all_conjuncts[i]);
        used[i] = true;
      }
    }
    acc = join(std::move(acc), std::move(relations[t]), applicable);
  }

  // Any conjunct left refers to columns that do not exist.
  for (size_t i = 0; i < all_conjuncts.size(); ++i) {
    if (!used[i]) {
      throw ExecutionError("MiniSQL: predicate references unknown column: " +
                           all_conjuncts[i]->to_sql());
    }
  }

  // Projection.
  if (query.star) {
    stats_.rows_returned = acc.rows.size();
    return ResultSet{std::move(acc.columns), std::move(acc.rows)};
  }
  ResultSet out;
  std::vector<size_t> indexes;
  for (const SelectItem& item : query.items) {
    int index = find_column(acc.columns, item.column);
    if (index == -1) {
      throw ExecutionError("MiniSQL: unknown column '" +
                           item.column.to_sql() + "' in select list");
    }
    indexes.push_back(static_cast<size_t>(index));
    OutColumn col = acc.columns[static_cast<size_t>(index)];
    if (!item.alias.empty()) col.name = item.alias;
    out.columns.push_back(std::move(col));
  }
  out.rows.reserve(acc.rows.size());
  for (const Row& row : acc.rows) {
    Row projected;
    projected.reserve(indexes.size());
    for (size_t index : indexes) projected.push_back(row[index]);
    out.rows.push_back(std::move(projected));
  }
  stats_.rows_returned = out.rows.size();
  return out;
}

}  // namespace disco::memdb
