// Experiment E16: the semi-structured document source and path-flattening
// pushdown (DESIGN.md "Document source").
//
// Two layers:
//
//   1. Source layer — DocPath point probes (`meta.site = "sN"`) against
//      one 100k-document collection, via the DocPath index vs a forced
//      whole-collection scan (DocStore::set_use_indexes(false)). Answer
//      cardinalities are checked probe by probe.
//
//   2. Mediator layer — the same federation query answered two ways:
//      a pushdown mediator that ships `select(x.meta.site = "sN")` plus
//      the path projection to the wrapper (the source probes its index
//      and flattens documents before they cross the wire), against a
//      pushdown-off twin over the SAME store that fetches every whole
//      document and filters mediator-side. The roadmap bar: path-probe
//      >= 5x whole-document fetch at the 100k scale, equal answers.
//      A mixed doc+relational join (docstore readings x memdb sites)
//      runs under both mediators as well — answers must agree.
//
//   build/bench/bench_docsource [BENCH_docsource.json] [--smoke]
//
// --smoke shrinks the collection for CI; the >= 5x bar is only enforced
// at full scale (answer equality is checked at any scale).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/disco.hpp"
#include "worlds.hpp"

namespace {

using namespace disco;
using disco::bench::Stopwatch;

/// One reading document: nested meta struct + a samples array, so the
/// probes and projections exercise real multi-step paths.
Value make_doc(int64_t id, int64_t site, int64_t depth) {
  return Value::strct(
      {{"id", Value::integer(id)},
       {"meta",
        Value::strct({{"site", Value::string("s" + std::to_string(site))},
                      {"depth", Value::integer(depth)}})},
       {"samples",
        Value::list({Value::strct({{"ph", Value::real(6.5 + depth % 4)},
                                   {"t", Value::integer(depth % 30)}}),
                     Value::strct({{"ph", Value::real(7.0 + id % 3)},
                                   {"t", Value::integer(id % 25)}})})}});
}

std::shared_ptr<Mediator> make_mediator(docstore::DocStore* store,
                                        memdb::Database* db, bool pushdown) {
  Mediator::Options options;
  options.optimizer.enable_select_pushdown = pushdown;
  options.optimizer.enable_project_pushdown = pushdown;
  auto mediator = std::make_shared<Mediator>(options);
  auto dw = std::make_shared<wrapper::DocWrapper>();
  dw->set_cost_model(wrapper::ComputeCost{.enabled = true});
  dw->attach_store("rd", store);
  mediator->register_wrapper("wd", std::move(dw));
  mediator->register_repository(
      catalog::Repository{"rd", "doc-host", "docs", "16.0.0.1"},
      net::LatencyModel{0, 0, 0});
  auto mw = std::make_shared<wrapper::MemDbWrapper>();
  mw->attach_database("rm", db);
  mediator->register_wrapper("wm", std::move(mw));
  mediator->register_repository(
      catalog::Repository{"rm", "sql-host", "db", "16.0.0.2"},
      net::LatencyModel{0, 0, 0});
  mediator->execute_odl(R"(
    interface Reading (extent readings) {
      attribute Long id;
      attribute Json meta;
      attribute Json samples; };
    extent readingsd of Reading wrapper wd repository rd
      map ((readings=readingsd));
    interface Site { attribute String site; attribute String region; };
    extent sites of Site wrapper wm repository rm;
  )");
  return mediator;
}

/// Sorted row texts: bag equality that ignores arrival order.
std::vector<std::string> row_texts(const Answer& answer) {
  std::vector<std::string> rows;
  for (const Value& item : answer.data().items()) {
    rows.push_back(item.to_oql());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
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

  const size_t kDocs = smoke ? 5'000 : 100'000;
  const size_t kSites = kDocs / 10;  // ~10 documents per site
  const size_t kProbes = smoke ? 8 : 32;
  const size_t kFedQueries = smoke ? 4 : 16;
  std::printf("== bench_docsource: %zu documents%s ==\n", kDocs,
              smoke ? " (smoke)" : "");

  // ---- source layer -------------------------------------------------------
  docstore::DocStore store("bench");
  docstore::DocCollection& readings = store.create_collection("readings");
  {
    SplitMix64 rng(20260808);
    for (size_t i = 0; i < kDocs; ++i) {
      readings.insert(make_doc(static_cast<int64_t>(i),
                               rng.next_in(0, static_cast<int64_t>(kSites)),
                               rng.next_in(0, 40)));
    }
  }
  Stopwatch build_watch;
  readings.create_index("meta.site");
  const double build_s = build_watch.seconds();
  std::printf("index build: %zu docs in %.1f ms (%.0f docs/s)\n", kDocs,
              build_s * 1e3, static_cast<double>(kDocs) / build_s);

  SplitMix64 pick(42);
  std::vector<docstore::DocPath> probe_paths;
  std::vector<Value> probe_keys;
  for (size_t i = 0; i < kProbes; ++i) {
    probe_paths.push_back(docstore::DocPath::parse("meta.site"));
    probe_keys.push_back(Value::string(
        "s" + std::to_string(pick.next_in(0, static_cast<int64_t>(kSites)))));
  }

  size_t probe_answer_rows = 0;
  uint64_t probe_docs_examined = 0;
  std::vector<size_t> probe_counts;
  Stopwatch probe_watch;
  for (size_t i = 0; i < kProbes; ++i) {
    size_t examined = 0;
    probe_counts.push_back(
        readings.find_equal(probe_paths[i], probe_keys[i], nullptr, &examined)
            .size());
    probe_answer_rows += probe_counts.back();
    probe_docs_examined += examined;
  }
  const double probe_s = probe_watch.seconds();

  store.set_use_indexes(false);
  uint64_t scan_docs_examined = 0;
  bool probe_answers_equal = true;
  Stopwatch scan_watch;
  for (size_t i = 0; i < kProbes; ++i) {
    size_t examined = 0;
    size_t rows =
        readings.find_equal(probe_paths[i], probe_keys[i], nullptr, &examined)
            .size();
    scan_docs_examined += examined;
    if (rows != probe_counts[i]) probe_answers_equal = false;
  }
  const double scan_s = scan_watch.seconds();
  store.set_use_indexes(true);

  const double probe_speedup = scan_s / probe_s;
  std::printf("path probe: %5zu probes: scan %8.1f ms (%llu docs), "
              "index %8.1f ms (%llu docs) -> %6.1fx  [%zu answer rows, "
              "answers %s]\n",
              kProbes, scan_s * 1e3,
              static_cast<unsigned long long>(scan_docs_examined),
              probe_s * 1e3,
              static_cast<unsigned long long>(probe_docs_examined),
              probe_speedup, probe_answer_rows,
              probe_answers_equal ? "equal" : "DIFFER");

  // ---- mediator layer -----------------------------------------------------
  // The relational side of the mixed join: one region per 7 sites.
  memdb::Database db("db");
  memdb::Table& sites =
      db.create_table("sites", {{"site", memdb::ColumnType::Text},
                                {"region", memdb::ColumnType::Text}});
  for (size_t s = 0; s < kSites; ++s) {
    sites.insert({Value::string("s" + std::to_string(s)),
                  Value::string("r" + std::to_string(s % 7))});
  }

  std::shared_ptr<Mediator> push = make_mediator(&store, &db, true);
  std::shared_ptr<Mediator> fetch = make_mediator(&store, &db, false);

  std::vector<std::string> fed_queries;
  for (size_t i = 0; i < kFedQueries; ++i) {
    fed_queries.push_back(
        "select struct(i: x.id, d: x.meta.depth) from x in readingsd "
        "where x.meta.site = \"s" +
        std::to_string(pick.next_in(0, static_cast<int64_t>(kSites))) +
        "\"");
  }

  bool fed_answers_equal = true;
  size_t fed_answer_rows = 0;
  uint64_t push_rows_fetched = 0;
  uint64_t fetch_rows_fetched = 0;
  std::vector<std::vector<std::string>> push_answers;

  Stopwatch push_watch;
  for (const std::string& q : fed_queries) {
    Answer answer = push->query(q);
    push_rows_fetched += answer.stats().run.rows_fetched;
    push_answers.push_back(row_texts(answer));
    fed_answer_rows += push_answers.back().size();
  }
  const double push_s = push_watch.seconds();

  Stopwatch fetch_watch;
  for (size_t i = 0; i < fed_queries.size(); ++i) {
    Answer answer = fetch->query(fed_queries[i]);
    fetch_rows_fetched += answer.stats().run.rows_fetched;
    if (row_texts(answer) != push_answers[i]) fed_answers_equal = false;
  }
  const double fetch_s = fetch_watch.seconds();

  const double fed_speedup = fetch_s / push_s;
  std::printf("federation: %5zu queries: whole-doc fetch %8.1f ms "
              "(%llu rows over the wire), path pushdown %8.1f ms "
              "(%llu rows) -> %6.1fx  [%zu answer rows, answers %s]\n",
              kFedQueries, fetch_s * 1e3,
              static_cast<unsigned long long>(fetch_rows_fetched),
              push_s * 1e3,
              static_cast<unsigned long long>(push_rows_fetched), fed_speedup,
              fed_answer_rows, fed_answers_equal ? "equal" : "DIFFER");

  // ---- mixed doc + relational join ----------------------------------------
  const std::string join_query =
      "select struct(i: x.id, r: y.region) from x in readingsd, y in sites "
      "where x.meta.site = y.site and x.meta.depth = 7";

  Stopwatch join_push_watch;
  Answer join_push = push->query(join_query);
  const double join_push_s = join_push_watch.seconds();
  Stopwatch join_fetch_watch;
  Answer join_fetch = fetch->query(join_query);
  const double join_fetch_s = join_fetch_watch.seconds();
  const bool join_answers_equal =
      row_texts(join_push) == row_texts(join_fetch);
  std::printf("mixed join: whole-doc fetch %8.1f ms, path pushdown %8.1f ms "
              "-> %6.1fx  [%zu rows, answers %s]\n",
              join_fetch_s * 1e3, join_push_s * 1e3, join_fetch_s / join_push_s,
              join_push.data().size(),
              join_answers_equal ? "equal" : "DIFFER");

  // ---- verdict ------------------------------------------------------------
  const bool answers_equal =
      probe_answers_equal && fed_answers_equal && join_answers_equal;
  const bool bar_met = answers_equal && fed_speedup >= 5.0;
  std::printf("\n>= 5x bar on path-probe vs whole-document fetch: %s%s\n",
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
                 "  \"bench\": \"docsource\",\n"
                 "  \"documents\": %zu,\n"
                 "  \"smoke\": %s,\n"
                 "  \"index_build_docs_per_s\": %.0f,\n"
                 "  \"source_probe\": {\"probes\": %zu, \"scan_ms\": %.3f, "
                 "\"indexed_ms\": %.3f, \"docs_examined_scan\": %llu, "
                 "\"docs_examined_indexed\": %llu, \"speedup\": %.2f, "
                 "\"answer_rows\": %zu, \"answers_equal\": %s},\n"
                 "  \"federation\": {\"queries\": %zu, "
                 "\"whole_doc_fetch_ms\": %.3f, \"path_pushdown_ms\": %.3f, "
                 "\"rows_fetched_whole\": %llu, "
                 "\"rows_fetched_pushdown\": %llu, \"speedup\": %.2f, "
                 "\"answer_rows\": %zu, \"answers_equal\": %s},\n"
                 "  \"mixed_join\": {\"whole_doc_fetch_ms\": %.3f, "
                 "\"path_pushdown_ms\": %.3f, \"speedup\": %.2f, "
                 "\"answer_rows\": %zu, \"answers_equal\": %s},\n"
                 "  \"bar_5x_met\": %s\n}\n",
                 kDocs, smoke ? "true" : "false",
                 static_cast<double>(kDocs) / build_s, kProbes, scan_s * 1e3,
                 probe_s * 1e3,
                 static_cast<unsigned long long>(scan_docs_examined),
                 static_cast<unsigned long long>(probe_docs_examined),
                 probe_speedup, probe_answer_rows,
                 probe_answers_equal ? "true" : "false", kFedQueries,
                 fetch_s * 1e3, push_s * 1e3,
                 static_cast<unsigned long long>(fetch_rows_fetched),
                 static_cast<unsigned long long>(push_rows_fetched),
                 fed_speedup, fed_answer_rows,
                 fed_answers_equal ? "true" : "false", join_fetch_s * 1e3,
                 join_push_s * 1e3, join_fetch_s / join_push_s,
                 join_push.data().size(),
                 join_answers_equal ? "true" : "false",
                 bar_met ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  // Smoke runs don't enforce the 5x throughput bar (scale-dependent),
  // but answer equality must hold at any scale.
  return (smoke ? answers_equal : bar_met) ? 0 : 1;
}
