// Differential testing of the memdb substrate: random tables and random
// MiniSQL-expressible queries are executed twice — by the memdb engine
// (scan/filter/join machinery) and by the OQL reference evaluator over
// the same data — and must have the same outcome: the same multiset, or
// the same error text. Cells are sometimes nil and literals sometimes of
// the wrong kind, so ordering comparisons raise; the engine must raise
// exactly where the evaluator does. This pins the substrate's semantics
// to the mediator's, so wrapper translations cannot silently change
// results depending on where a predicate executes.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "oql/eval.hpp"
#include "oql/parser.hpp"
#include "sources/memdb/database.hpp"
#include "sources/memdb/engine.hpp"

namespace disco {
namespace {

/// One top-level conjunct of a generated WHERE clause and the aliases
/// it mentions.
struct Conjunct {
  std::string text;
  bool uses_a = false;
  bool uses_b = false;
};

struct RandomRelations {
  explicit RandomRelations(uint64_t seed) : rng(seed) {
    make_table("t1");
    make_table("t2");
  }

  Value maybe_nil(Value v) {
    return rng.next_below(10) == 0 ? Value::null() : std::move(v);
  }

  void make_table(const std::string& name) {
    auto& table = db.create_table(name, {{"k", memdb::ColumnType::Int},
                                         {"v", memdb::ColumnType::Int},
                                         {"s", memdb::ColumnType::Text}});
    size_t rows = 1 + rng.next_below(25);
    std::vector<Value> oql_rows;
    for (size_t r = 0; r < rows; ++r) {
      Value k = maybe_nil(Value::integer(rng.next_in(0, 8)));
      Value v = maybe_nil(Value::integer(rng.next_in(-20, 20)));
      Value s = maybe_nil(Value::string(
          std::string(1, static_cast<char>('a' + rng.next_below(4)))));
      table.insert({k, v, s});
      oql_rows.push_back(
          Value::strct({{"k", k}, {"v", v}, {"s", s}}));
    }
    resolver.bind(name, Value::bag(std::move(oql_rows)));
  }

  /// A literal for an int column: usually an int, sometimes a string or
  /// nil (which ordering comparisons reject).
  std::string int_literal(int64_t lo, int64_t hi) {
    switch (rng.next_below(8)) {
      case 0:
        return "\"q\"";
      case 1:
        return "null";
      default:
        return std::to_string(rng.next_in(lo, hi));
    }
  }

  /// One comparison over alias `a` (and `b` when two tables join).
  Conjunct atom(bool two_tables) {
    const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    std::string op = ops[rng.next_below(6)];
    switch (rng.next_below(3)) {
      case 0:
        if (two_tables && rng.next_below(3) == 0) {
          return {"b.v " + op + " " + int_literal(-20, 20), false, true};
        }
        return {"a.v " + op + " " + int_literal(-20, 20), true, false};
      case 1:
        if (two_tables) return {"a.k " + op + " b.k", true, true};
        return {"a.k " + op + " " + int_literal(0, 8), true, false};
      default:
        return {std::string("a.s ") + op + " \"" +
                    static_cast<char>('a' + rng.next_below(4)) + "\"",
                true, false};
    }
  }

  /// A random WHERE clause as its top-level conjuncts, each a disjunction
  /// of one or two comparisons, sometimes negated.
  std::vector<Conjunct> predicate(bool two_tables) {
    std::vector<Conjunct> out;
    for (size_t i = 1 + rng.next_below(3); i > 0; --i) {
      Conjunct c = atom(two_tables);
      if (rng.next_below(3) == 0) {
        Conjunct d = atom(two_tables);
        c.text += " OR " + d.text;
        c.uses_a |= d.uses_a;
        c.uses_b |= d.uses_b;
      }
      if (rng.next_below(5) == 0) c.text = "NOT (" + c.text + ")";
      out.push_back(std::move(c));
    }
    return out;
  }

  SplitMix64 rng;
  memdb::Database db{"diff"};
  oql::MapResolver resolver;
};

/// "(c1) AND (c2) ..." over the conjuncts `keep` accepts; "true" when
/// none does. MiniSQL and OQL share this syntax up to to_oql_pred.
template <typename Keep>
std::string conjunction(const std::vector<Conjunct>& conjuncts, Keep keep) {
  std::string out;
  for (const Conjunct& c : conjuncts) {
    if (!keep(c)) continue;
    if (!out.empty()) out += " AND ";
    out += "(" + c.text + ")";
  }
  return out.empty() ? "true" : out;
}

/// MiniSQL's <> is OQL's != and its null is OQL's nil; keywords are
/// shared otherwise.
std::string to_oql_pred(std::string pred) {
  auto replace_all = [&pred](const std::string& from, const std::string& to) {
    size_t pos = 0;
    while ((pos = pred.find(from, pos)) != std::string::npos) {
      pred.replace(pos, from.size(), to);
      pos += to.size();
    }
  };
  replace_all("<>", "!=");
  replace_all("null", "nil");
  return pred;
}

/// The outcome of running `fn`: the bag's text, or the error's.
template <typename Fn>
std::string outcome(Fn fn) {
  try {
    return fn().to_oql();
  } catch (const ExecutionError& e) {
    return e.what();
  }
}

Value rows_as_bag(const memdb::ResultSet& rs) {
  std::vector<Value> items;
  items.reserve(rs.rows.size());
  for (const memdb::Row& row : rs.rows) {
    items.push_back(Value::list(row));
  }
  return Value::bag(std::move(items));
}

/// Bag text with the items sorted, for comparing bags whose row order
/// may legitimately differ (hash joins).
std::string sorted_bag_text(const std::string& text, const Value& bag) {
  if (!bag.is_collection()) return text;
  std::vector<Value> items = bag.items();
  std::sort(items.begin(), items.end());
  return Value::bag(std::move(items)).to_oql();
}

class MemdbVsEvaluator : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemdbVsEvaluator, SingleTableFilters) {
  RandomRelations world(GetParam() * 2654435761u);
  memdb::Engine engine(&world.db);
  oql::Evaluator eval(&world.resolver);
  for (int trial = 0; trial < 10; ++trial) {
    const std::string pred =
        conjunction(world.predicate(false), [](const Conjunct&) {
          return true;
        });
    const std::string via_engine = outcome([&] {
      return rows_as_bag(
          engine.execute_sql("SELECT a.k, a.v FROM t1 a WHERE " + pred));
    });
    const std::string via_eval = outcome([&] {
      return eval.eval(oql::parse(
          "select list(a.k, a.v) from a in t1 where " + to_oql_pred(pred)));
    });
    EXPECT_EQ(via_engine, via_eval) << pred;
  }
}

// A join's WHERE runs in the mediator's order: each table's own
// conjuncts during its scan, then the first a.k = b.k as the hash join's
// key, and the other pair conjuncts only on key-matched pairs. The
// reference evaluates the same steps, the key conjunct first.
TEST_P(MemdbVsEvaluator, TwoTableJoins) {
  RandomRelations world(GetParam() * 0x9e3779b9u + 7);
  memdb::Engine engine(&world.db);
  oql::Evaluator eval(&world.resolver);
  // Six random clauses, then a fixed one whose ordering conjunct comes
  // before the key and meets nil v mostly on pairs the key rejects.
  for (int trial = 0; trial <= 6; ++trial) {
    const std::vector<Conjunct> conjuncts =
        trial < 6 ? world.predicate(true)
                  : std::vector<Conjunct>{{"a.v < b.v", true, true},
                                          {"a.k = b.k", true, true}};
    const std::string pred =
        conjunction(conjuncts, [](const Conjunct&) { return true; });
    Value engine_bag;
    const std::string via_engine = outcome([&] {
      engine_bag = rows_as_bag(engine.execute_sql(
          "SELECT a.v, b.v FROM t1 a, t2 b WHERE " + pred));
      return engine_bag;
    });
    Value eval_bag;
    const std::string via_eval = outcome([&] {
      oql::MapResolver scope = world.resolver;
      scope.bind("fa", eval.eval(oql::parse(
                           "select a from a in t1 where " +
                           to_oql_pred(conjunction(
                               conjuncts, [](const Conjunct& c) {
                                 return !c.uses_b;
                               })))));
      scope.bind("fb", eval.eval(oql::parse(
                           "select b from b in t2 where " +
                           to_oql_pred(conjunction(
                               conjuncts, [](const Conjunct& c) {
                                 return !c.uses_a;
                               })))));
      std::vector<Conjunct> pair;
      for (const Conjunct& c : conjuncts) {
        if (c.uses_a && c.uses_b) pair.push_back(c);
      }
      auto key = std::find_if(pair.begin(), pair.end(), [](const Conjunct& c) {
        return c.text == "a.k = b.k";
      });
      if (key != pair.end()) std::rotate(pair.begin(), key, key + 1);
      eval_bag = oql::Evaluator(&scope).eval(oql::parse(
          "select list(a.v, b.v) from a in fa, b in fb where " +
          to_oql_pred(conjunction(pair, [](const Conjunct&) {
            return true;
          }))));
      return eval_bag;
    });
    EXPECT_EQ(sorted_bag_text(via_engine, engine_bag),
              sorted_bag_text(via_eval, eval_bag))
        << pred;
  }
}

// Every strategy checks the residual on the same key-matched pairs in
// the same order, so a residual that raises on nil v raises alike.
TEST_P(MemdbVsEvaluator, JoinStrategiesAgreeOnRandomData) {
  RandomRelations world(GetParam() * 31 + 3);
  for (const char* sql :
       {"SELECT * FROM t1 a, t2 b WHERE a.k = b.k",
        "SELECT * FROM t1 a, t2 b WHERE a.v < b.v AND a.k = b.k"}) {
    std::string reference;
    for (memdb::JoinStrategy strategy :
         {memdb::JoinStrategy::NestedLoop, memdb::JoinStrategy::Hash,
          memdb::JoinStrategy::Merge}) {
      memdb::Engine engine(&world.db);
      engine.set_join_strategy(strategy);
      Value bag;
      std::string result = outcome([&] {
        bag = rows_as_bag(engine.execute_sql(sql));
        return bag;
      });
      result = sorted_bag_text(result, bag);
      if (strategy == memdb::JoinStrategy::NestedLoop) {
        reference = result;
      } else {
        EXPECT_EQ(result, reference) << sql;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemdbVsEvaluator,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace disco
