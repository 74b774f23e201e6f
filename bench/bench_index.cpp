// Experiment E15: ordered indexes in memdb and the cost-model closed
// loop (DESIGN.md "Ordered indexes").
//
// Two layers:
//
//   1. Source layer — point, range and OR-chain (bind-join shaped)
//      selections against one memdb table at the 1M-row scale, indexed
//      vs forced full scan (Engine::set_use_indexes(false)). The
//      acceptance bar from the roadmap: indexed point and range
//      selections >= 10x the scan's rows/s.
//
//   2. Mediator layer — the §3.3 loop over an indexed probe side: the
//      first execution fetches the probe extent whole, the cost history
//      flips the plan to an index-driven bind join, and the re-run is
//      timed against the cold run (wall clock, real compute: the scan
//      of the probe table is what disappears).
//
//   build/bench/bench_index [BENCH_index.json] [--smoke]
//
// --smoke shrinks the table for CI; the >= 10x bar is only enforced at
// full scale (answers are checked in both modes).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/disco.hpp"
#include "sources/memdb/database.hpp"
#include "sources/memdb/engine.hpp"
#include "worlds.hpp"

namespace {

using namespace disco;
using disco::bench::Stopwatch;

struct OpResult {
  const char* op;
  size_t queries;
  double scan_s;
  double indexed_s;
  uint64_t scan_rows;     ///< rows examined by the scans
  uint64_t indexed_rows;  ///< candidate rows examined via the index
  size_t answer_rows;     ///< identical in both modes (checked)

  double speedup() const { return scan_s / indexed_s; }
  double scan_rate() const { return static_cast<double>(scan_rows) / scan_s; }
  double indexed_rate() const {
    return static_cast<double>(scan_rows) / indexed_s;
  }
};

void print(const OpResult& r) {
  std::printf("%-10s %5zu queries: scan %8.1f ms (%12.0f rows/s), "
              "index %8.1f ms (%12.0f rows/s) -> %6.1fx  [%zu answer rows]\n",
              r.op, r.queries, r.scan_s * 1e3, r.scan_rate(),
              r.indexed_s * 1e3, r.indexed_rate(), r.speedup(),
              r.answer_rows);
}

/// Runs `sqls` twice — indexed then forced scan — and checks the answer
/// cardinalities agree query by query.
bool run_both_ways(memdb::Engine& engine, const std::vector<std::string>& sqls,
                   const char* op, size_t* answer_rows, double* indexed_s,
                   double* scan_s, uint64_t* indexed_rows,
                   uint64_t* scan_rows) {
  std::vector<size_t> indexed_counts;
  engine.set_use_indexes(true);
  *indexed_rows = 0;
  Stopwatch indexed_watch;
  for (const std::string& sql : sqls) {
    indexed_counts.push_back(engine.execute_sql(sql).rows.size());
    *indexed_rows += engine.last_stats().rows_scanned;
  }
  *indexed_s = indexed_watch.seconds();

  engine.set_use_indexes(false);
  *scan_rows = 0;
  *answer_rows = 0;
  Stopwatch scan_watch;
  for (size_t i = 0; i < sqls.size(); ++i) {
    size_t rows = engine.execute_sql(sqls[i]).rows.size();
    *scan_rows += engine.last_stats().rows_scanned;
    *answer_rows += rows;
    if (rows != indexed_counts[i]) {
      std::printf("ANSWER MISMATCH on %s: %s -> indexed %zu, scan %zu\n", op,
                  sqls[i].c_str(), indexed_counts[i], rows);
      return false;
    }
  }
  *scan_s = scan_watch.seconds();
  engine.set_use_indexes(true);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  const size_t kRows = smoke ? 20'000 : 1'000'000;
  const size_t kKeySpace = kRows / 10;  // ~10 rows per point key
  const size_t kQueries = smoke ? 8 : 32;
  std::printf("== bench_index: %zu rows%s ==\n", kRows,
              smoke ? " (smoke)" : "");

  // ---- source layer -------------------------------------------------------
  memdb::Database db("bench");
  memdb::Table& t = db.create_table("t", {{"k", memdb::ColumnType::Int},
                                          {"x", memdb::ColumnType::Real},
                                          {"s", memdb::ColumnType::Text}});
  {
    SplitMix64 rng(20260808);
    for (size_t i = 0; i < kRows; ++i) {
      t.insert({Value::integer(rng.next_in(
                    0, static_cast<int64_t>(kKeySpace))),
                Value::real(static_cast<double>(rng.next_in(0, 1000)) / 10.0),
                Value::string("s" + std::to_string(i % 97))});
    }
  }
  Stopwatch build_watch;
  t.create_index("t_k", "k");
  const double build_s = build_watch.seconds();
  std::printf("index build: %zu rows in %.1f ms (%.0f rows/s)\n", kRows,
              build_s * 1e3, static_cast<double>(kRows) / build_s);

  memdb::Engine engine(static_cast<const memdb::Database*>(&db));
  SplitMix64 pick(42);
  std::vector<OpResult> results;

  {
    std::vector<std::string> sqls;
    for (size_t i = 0; i < kQueries; ++i) {
      sqls.push_back(
          "SELECT * FROM t WHERE k = " +
          std::to_string(pick.next_in(0, static_cast<int64_t>(kKeySpace))));
    }
    OpResult r{"point", kQueries, 0, 0, 0, 0, 0};
    if (!run_both_ways(engine, sqls, r.op, &r.answer_rows, &r.indexed_s,
                       &r.scan_s, &r.indexed_rows, &r.scan_rows)) {
      return 1;
    }
    results.push_back(r);
    print(r);
  }

  {
    // Ranges covering ~0.1% of the key space each.
    const int64_t width =
        std::max<int64_t>(1, static_cast<int64_t>(kKeySpace) / 1000);
    std::vector<std::string> sqls;
    for (size_t i = 0; i < kQueries; ++i) {
      int64_t lo = pick.next_in(0, static_cast<int64_t>(kKeySpace) - width);
      sqls.push_back("SELECT * FROM t WHERE k >= " + std::to_string(lo) +
                     " AND k < " + std::to_string(lo + width));
    }
    OpResult r{"range", kQueries, 0, 0, 0, 0, 0};
    if (!run_both_ways(engine, sqls, r.op, &r.answer_rows, &r.indexed_s,
                       &r.scan_s, &r.indexed_rows, &r.scan_rows)) {
      return 1;
    }
    results.push_back(r);
    print(r);
  }

  {
    // The wrapper's bind-join probe shape: an OR chain of 16 point keys.
    std::vector<std::string> sqls;
    for (size_t i = 0; i < kQueries; ++i) {
      std::string sql = "SELECT * FROM t WHERE ";
      for (int j = 0; j < 16; ++j) {
        if (j > 0) sql += " OR ";
        sql += "k = " + std::to_string(pick.next_in(
                            0, static_cast<int64_t>(kKeySpace)));
      }
      sqls.push_back(std::move(sql));
    }
    OpResult r{"bindjoin", kQueries, 0, 0, 0, 0, 0};
    if (!run_both_ways(engine, sqls, r.op, &r.answer_rows, &r.indexed_s,
                       &r.scan_s, &r.indexed_rows, &r.scan_rows)) {
      return 1;
    }
    results.push_back(r);
    print(r);
  }

  // ---- mediator layer: the closed loop ------------------------------------
  // Orders (3 rows) joins customers (kRows rows, indexed id) across
  // repositories. Cold run fetches customers whole; the history flips
  // the plan to a bind join; the warm run probes the index.
  double cold_s = 0;
  double warm_s = 0;
  bool flipped = false;
  bool same_answers = false;
  {
    memdb::Database db0("db0");
    memdb::Database db1("db1");
    auto& orders = db0.create_table("orders",
                                    {{"cid", memdb::ColumnType::Int},
                                     {"item", memdb::ColumnType::Text}});
    orders.insert({Value::integer(11), Value::string("disk")});
    orders.insert({Value::integer(42), Value::string("tape")});
    orders.insert({Value::integer(271), Value::string("cpu")});
    auto& customers = db1.create_table(
        "customers", {{"id", memdb::ColumnType::Int},
                      {"cname", memdb::ColumnType::Text}});
    for (size_t i = 0; i < kRows; ++i) {
      customers.insert({Value::integer(static_cast<int64_t>(i)),
                        Value::string("c" + std::to_string(i))});
    }
    customers.create_index("customers_id", "id");

    Mediator::Options options;
    options.optimizer.enable_bind_join = true;
    Mediator mediator(options);
    auto w = std::make_shared<wrapper::MemDbWrapper>();
    w->set_cost_model(wrapper::ComputeCost{.enabled = true});
    w->attach_database("r0", &db0);
    w->attach_database("r1", &db1);
    mediator.register_wrapper("w0", std::move(w));
    mediator.register_repository(catalog::Repository{"r0", "a", "db", "1.0.0.1"},
                                 net::LatencyModel{0.005, 0.0001, 0});
    mediator.register_repository(catalog::Repository{"r1", "b", "db", "1.0.0.2"},
                                 net::LatencyModel{0.005, 0.0001, 0});
    mediator.execute_odl(R"(
      interface Order { attribute Short cid; attribute String item; };
      interface Customer { attribute Long id; attribute String cname; };
      extent orders of Order wrapper w0 repository r0;
      extent customers of Customer wrapper w0 repository r1;
    )");
    const std::string join_query =
        "select struct(who: c.cname, what: o.item) "
        "from o in orders, c in customers where o.cid = c.id";

    Stopwatch cold_watch;
    Answer cold = mediator.query(join_query);
    cold_s = cold_watch.seconds();

    for (const auto& candidate :
         mediator.explain_report(join_query).candidates) {
      if (candidate.chosen && candidate.bind_join) flipped = true;
    }

    Stopwatch warm_watch;
    Answer warm = mediator.query(join_query);
    warm_s = warm_watch.seconds();
    same_answers = cold.data() == warm.data() && cold.data().size() == 3;

    std::printf("plan flip:  cold %8.1f ms (full fetch), warm %8.1f ms "
                "(%s) -> %.1fx, answers %s\n",
                cold_s * 1e3, warm_s * 1e3,
                flipped ? "index-driven bind join" : "NOT FLIPPED",
                cold_s / warm_s, same_answers ? "equal" : "DIFFER");
  }

  // ---- verdict ------------------------------------------------------------
  bool bar_met = true;
  for (const OpResult& r : results) {
    if ((std::string(r.op) == "point" || std::string(r.op) == "range") &&
        r.speedup() < 10.0) {
      bar_met = false;
    }
  }
  if (!flipped || !same_answers) bar_met = false;
  std::printf("\n>= 10x bar on {point, range} + plan flip: %s%s\n",
              bar_met ? "met" : "NOT MET",
              smoke ? " (smoke: informational only)" : "");

  if (json_path != nullptr) {
    FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::printf("cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"index\",\n"
                 "  \"rows\": %zu,\n"
                 "  \"smoke\": %s,\n"
                 "  \"index_build_rows_per_s\": %.0f,\n",
                 kRows, smoke ? "true" : "false",
                 static_cast<double>(kRows) / build_s);
    std::fprintf(out, "  \"operators\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const OpResult& r = results[i];
      std::fprintf(out,
                   "    {\"op\": \"%s\", \"queries\": %zu, "
                   "\"scan_ms\": %.3f, \"indexed_ms\": %.3f, "
                   "\"scan_rows_per_s\": %.0f, "
                   "\"indexed_rows_per_s\": %.0f, \"speedup\": %.2f, "
                   "\"rows_examined_scan\": %llu, "
                   "\"rows_examined_indexed\": %llu, \"answer_rows\": %zu}%s\n",
                   r.op, r.queries, r.scan_s * 1e3, r.indexed_s * 1e3,
                   r.scan_rate(), r.indexed_rate(), r.speedup(),
                   static_cast<unsigned long long>(r.scan_rows),
                   static_cast<unsigned long long>(r.indexed_rows),
                   r.answer_rows, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"plan_flip\": {\"cold_ms\": %.3f, \"warm_ms\": %.3f, "
                 "\"speedup\": %.2f, \"flipped\": %s, "
                 "\"answers_equal\": %s},\n"
                 "  \"bar_10x_met\": %s\n}\n",
                 cold_s * 1e3, warm_s * 1e3, cold_s / warm_s,
                 flipped ? "true" : "false", same_answers ? "true" : "false",
                 bar_met ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  // Smoke runs don't enforce the 10x throughput bar (scale-dependent),
  // but the loop must flip and answer-equality must hold at any scale.
  return (smoke ? flipped && same_answers : bar_met) ? 0 : 1;
}
