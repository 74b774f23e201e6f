// Experiment E14: columnar batch execution (src/vec/, DESIGN.md "Batch
// execution").
//
// Per-operator throughput of the batch kernels against the exact
// row-at-a-time loops the runtime otherwise runs (Env-scope binding +
// oql::Evaluator for filters, Value::hash buckets for the hash join,
// row-vector splicing for the union merge, eval_call for aggregation).
// The acceptance bar from the roadmap: >= 3x rows/s on at least one of
// {filter, hash join, union merge} at the 1M-row scale.
//
// Boundary conversion (from_rows/to_rows) is timed separately and
// reported in the JSON: in the real pipeline it is paid once per
// exec/const leaf and once at the answer boundary, not per operator.
//
//   build/bench/bench_vectorized [BENCH_vectorized.json]
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "oql/eval.hpp"
#include "oql/parser.hpp"
#include "value/value.hpp"
#include "vec/batch.hpp"
#include "vec/ops.hpp"
#include "worlds.hpp"

namespace {

using namespace disco;
using disco::bench::Stopwatch;

struct OpResult {
  const char* op;
  size_t rows;
  double row_s;
  double vec_s;
  size_t row_out;
  size_t vec_out;

  double speedup() const { return row_s / vec_s; }
  double row_rate() const { return static_cast<double>(rows) / row_s; }
  double vec_rate() const { return static_cast<double>(rows) / vec_s; }
};

void print(const OpResult& r) {
  std::printf("%-12s %9zu rows: row %8.1f ms (%11.0f rows/s), "
              "vec %8.1f ms (%11.0f rows/s) -> %5.1fx\n",
              r.op, r.rows, r.row_s * 1e3, r.row_rate(), r.vec_s * 1e3,
              r.vec_rate(), r.speedup());
}

/// Env rows struct(x: struct(k: Int, a: Int)) — the slim two-column
/// operator-input shape.
std::vector<Value> make_env_rows(size_t n, uint64_t seed) {
  std::vector<Value> rows;
  rows.reserve(n);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    rows.push_back(Value::strct(
        {{"x",
          Value::strct({{"k", Value::integer(static_cast<int64_t>(
                                  state >> 33 & 0xffff))},
                        {"a", Value::integer(static_cast<int64_t>(
                                  i % 1000))}})}}));
  }
  return rows;
}

/// The runtime's row-path filter loop, verbatim.
size_t row_filter(const std::vector<Value>& rows, const oql::ExprPtr& pred) {
  oql::Evaluator evaluator;
  size_t out = 0;
  for (const Value& env : rows) {
    oql::Env scope;
    for (const auto& [var, row] : env.fields()) scope.bind(var, row);
    if (evaluator.eval(pred, scope).as_bool()) ++out;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("columnar batch kernels vs the row-at-a-time loops "
              "(batch_rows = 4096)\n\n");
  const size_t kBatchRows = 4096;
  std::vector<OpResult> results;

  // ---- boundary conversion ------------------------------------------------
  const size_t kRows = 1'000'000;
  std::vector<Value> env_rows = make_env_rows(kRows, 42);
  Stopwatch convert_in;
  std::optional<vec::Table> table = vec::from_rows(env_rows, kBatchRows);
  const double from_rows_s = convert_in.seconds();
  if (!table.has_value()) {
    std::printf("from_rows declined the bench rows?!\n");
    return 1;
  }
  Stopwatch convert_out;
  const size_t rebuilt = vec::to_rows(*table).size();
  const double to_rows_s = convert_out.seconds();
  std::printf("convert      %9zu rows: from_rows %.1f ms, to_rows %.1f ms "
              "(%zu rebuilt)\n",
              kRows, from_rows_s * 1e3, to_rows_s * 1e3, rebuilt);

  // ---- filter -------------------------------------------------------------
  {
    const oql::ExprPtr pred = oql::parse("x.a < 500 and x.k >= 1000");
    Stopwatch row_watch;
    const size_t row_out = row_filter(env_rows, pred);
    const double row_s = row_watch.seconds();

    std::optional<vec::PredicateProgram> program =
        vec::compile_predicate(pred, table->schema);
    if (!program.has_value()) {
      std::printf("filter predicate did not compile?!\n");
      return 1;
    }
    Stopwatch vec_watch;
    vec::Table filtered = vec::filter_table(*table, *program);
    const double vec_s = vec_watch.seconds();
    results.push_back({"filter", kRows, row_s, vec_s, row_out,
                       filtered.rows()});
    print(results.back());
  }

  // ---- hash join (1M probe x 10k build) -----------------------------------
  {
    const size_t kBuild = 10'000;
    std::vector<Value> right_rows;
    right_rows.reserve(kBuild);
    for (size_t i = 0; i < kBuild; ++i) {
      right_rows.push_back(Value::strct(
          {{"y", Value::strct({{"k", Value::integer(static_cast<int64_t>(
                                        i % 0x10000))},
                               {"m", Value::integer(static_cast<int64_t>(
                                        i))}})}}));
    }
    std::optional<vec::Table> right = vec::from_rows(right_rows, kBatchRows);

    // The runtime's row-path hash join: build Value::hash buckets on the
    // right, probe the left in order, recheck equality after the hash.
    Stopwatch row_watch;
    size_t row_out = 0;
    {
      std::unordered_map<uint64_t, std::vector<const Value*>> buckets;
      for (const Value& r : right_rows) {
        buckets[r.field("y").field("k").hash()].push_back(&r);
      }
      for (const Value& l : env_rows) {
        const Value& key = l.field("x").field("k");
        auto it = buckets.find(key.hash());
        if (it == buckets.end()) continue;
        for (const Value* r : it->second) {
          if (Value::compare(key, r->field("y").field("k")) != 0) continue;
          // The row path materializes the merged env row here.
          std::vector<std::pair<std::string, Value>> merged = l.fields();
          for (const auto& f : r->fields()) merged.push_back(f);
          Value env = Value::strct(std::move(merged));
          row_out += env.fields().size() > 0 ? 1 : 0;
        }
      }
    }
    const double row_s = row_watch.seconds();

    Stopwatch vec_watch;
    vec::Table joined = vec::hash_join_tables(
        *table, *right, table->schema.index_of("x", "k"),
        right->schema.index_of("y", "k"), nullptr, kBatchRows);
    const double vec_s = vec_watch.seconds();
    results.push_back({"hash join", kRows, row_s, vec_s, row_out,
                       joined.rows()});
    print(results.back());
  }

  // ---- union merge (8 parts x 128k) ---------------------------------------
  {
    const size_t kParts = 8;
    const size_t kPartRows = 128'000;
    std::vector<std::vector<Value>> part_rows;
    std::vector<vec::Table> part_tables;
    for (size_t p = 0; p < kParts; ++p) {
      part_rows.push_back(make_env_rows(kPartRows, 100 + p));
      part_tables.push_back(*vec::from_rows(part_rows.back(), kBatchRows));
    }

    // Row path: the union operator appends every part's rows into the
    // accumulating answer vector (one Value copy per row).
    Stopwatch row_watch;
    std::vector<Value> merged_rows;
    for (const std::vector<Value>& part : part_rows) {
      merged_rows.reserve(merged_rows.size() + part.size());
      merged_rows.insert(merged_rows.end(), part.begin(), part.end());
    }
    const double row_s = row_watch.seconds();

    // Vec path: batch splice — O(#batches), no row traffic.
    Stopwatch vec_watch;
    vec::Table merged;
    for (vec::Table& part : part_tables) {
      if (!vec::concat_tables(&merged, std::move(part))) {
        std::printf("union splice refused same-layout parts?!\n");
        return 1;
      }
    }
    const double vec_s = vec_watch.seconds();
    results.push_back({"union merge", kParts * kPartRows, row_s, vec_s,
                       merged_rows.size(), merged.rows()});
    print(results.back());
  }

  // ---- aggregate (sum of 1M ints) -----------------------------------------
  {
    std::vector<Value> scalars;
    scalars.reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      scalars.push_back(Value::integer(static_cast<int64_t>(i % 1000)));
    }
    std::optional<vec::Table> column = vec::from_rows(scalars, kBatchRows);

    oql::Evaluator evaluator;
    oql::Env env;
    env.bind("xs", Value::bag(scalars));
    const oql::ExprPtr sum = oql::parse("sum(xs)");
    Stopwatch row_watch;
    const Value row_sum = evaluator.eval(sum, env);
    const double row_s = row_watch.seconds();

    Stopwatch vec_watch;
    std::optional<Value> vec_sum =
        vec::aggregate_table(*column, Aggregate::Sum);
    const double vec_s = vec_watch.seconds();
    if (!vec_sum.has_value() || *vec_sum != row_sum) {
      std::printf("aggregate mismatch?!\n");
      return 1;
    }
    results.push_back({"aggregate", kRows, row_s, vec_s,
                       static_cast<size_t>(row_sum.as_int()),
                       static_cast<size_t>(vec_sum->as_int())});
    print(results.back());
  }

  // ---- verdict ------------------------------------------------------------
  bool bar_met = false;
  for (const OpResult& r : results) {
    if (r.row_out != r.vec_out) {
      std::printf("OUTPUT MISMATCH on %s: row=%zu vec=%zu\n", r.op,
                  r.row_out, r.vec_out);
      return 1;
    }
    if ((std::string(r.op) == "filter" || std::string(r.op) == "hash join" ||
         std::string(r.op) == "union merge") &&
        r.speedup() >= 3.0) {
      bar_met = true;
    }
  }
  std::printf("\n>= 3x bar on {filter, hash join, union merge}: %s\n",
              bar_met ? "met" : "NOT MET");

  if (argc > 1) {
    FILE* out = std::fopen(argv[1], "w");
    if (out == nullptr) {
      std::printf("cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"vectorized\",\n"
                 "  \"batch_rows\": %zu,\n"
                 "  \"convert\": {\"rows\": %zu, \"from_rows_ms\": %.3f, "
                 "\"to_rows_ms\": %.3f},\n",
                 kBatchRows, kRows, from_rows_s * 1e3, to_rows_s * 1e3);
    std::fprintf(out, "  \"operators\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const OpResult& r = results[i];
      std::fprintf(out,
                   "    {\"op\": \"%s\", \"rows\": %zu, "
                   "\"row_ms\": %.3f, \"vec_ms\": %.3f, "
                   "\"row_rows_per_s\": %.0f, \"vec_rows_per_s\": %.0f, "
                   "\"speedup\": %.2f, \"out_rows\": %zu}%s\n",
                   r.op, r.rows, r.row_s * 1e3, r.vec_s * 1e3, r.row_rate(),
                   r.vec_rate(), r.speedup(), r.vec_out,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"bar_3x_met\": %s\n}\n",
                 bar_met ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", argv[1]);
  }
  return bar_met ? 0 : 1;
}
