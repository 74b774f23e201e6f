#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>

#include "oql/parser.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "server/values.hpp"

namespace e2e {

namespace {
const auto kStart = std::chrono::steady_clock::now();

/// (steal, total) jiffies of all CPUs from /proc/stat; zeros if unreadable.
std::pair<uint64_t, uint64_t> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  uint64_t total = 0;
  uint64_t steal = 0;
  uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

uint64_t mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void BagPrint::add(const Value& item) {
  ++count;
  sum += mix64(item.hash() ^ 0x9e3779b97f4a7c15ULL);
}

BagPrint print_of(const Value& bag) {
  BagPrint print;
  for (const Value& item : bag.items()) print.add(item);
  return print;
}

LoopResult closed_loop(
    int clients, double seconds,
    const std::function<Sample(int client, uint64_t k)>& one,
    double warmup_s) {
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(clients));
  std::atomic<uint64_t> warmup_ok{0};
  const auto jiffies0 = cpu_jiffies();
  const double t0 = now_s() + warmup_s;
  const double deadline = t0 + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& out = per_client[static_cast<size_t>(c)];
      for (uint64_t k = 0;; ++k) {
        const double start = now_s();
        if (start >= deadline) break;
        Sample sample = one(c, k);
        sample.end_s = now_s();
        if (start >= t0) {
          out.push_back(std::move(sample));
        } else if (sample.ok) {
          ++warmup_ok;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult result;
  result.start_s = t0;
  result.elapsed_s = now_s() - t0;
  result.warmup_ok = warmup_ok.load();
  const auto jiffies1 = cpu_jiffies();
  if (jiffies1.second > jiffies0.second) {
    result.steal_frac =
        static_cast<double>(jiffies1.first - jiffies0.first) /
        static_cast<double>(jiffies1.second - jiffies0.second);
  }
  for (auto& samples : per_client) {
    result.samples.insert(result.samples.end(), samples.begin(),
                          samples.end());
  }
  return result;
}

void record_failures(Report& report, const LoopResult& loop) {
  report.attempted += loop.samples.size();
  for (const Sample& s : loop.samples) {
    if (!s.ok) report.fail(s.error);
  }
}

void add_end_to_end(Report& report, double setup_s, const LoopResult& loop,
                    const std::vector<double>& admin_ms,
                    double sim_ms_override) {
  std::vector<double> latency;
  std::vector<double> sim;
  uint64_t ok = 0;
  uint64_t rows = 0;
  for (const Sample& s : loop.samples) {
    // A failed query misses every latency limit: it sorts last.
    latency.push_back(s.ok ? s.latency_ms
                           : std::numeric_limits<double>::max());
    sim.push_back(s.sim_ms);
    if (s.ok) {
      ++ok;
      rows += s.rows;
    }
  }
  const double n = static_cast<double>(loop.samples.size());
  report.add("setup_s", setup_s, "s");
  report.add("latency_p50_ms", percentile(latency, 0.5), "ms");
  report.add("latency_p90_ms", percentile(latency, 0.9), "ms");
  report.add("qps", static_cast<double>(ok) / loop.elapsed_s, "1/s");
  report.add("rows_per_s", static_cast<double>(rows) / loop.elapsed_s, "1/s");
  report.add("ok_frac", n > 0 ? static_cast<double>(ok) / n : 0, "frac");
  report.add("sim_latency_p50_ms",
             sim_ms_override >= 0 ? sim_ms_override : percentile(sim, 0.5),
             "ms");
  report.add("admin_p50_ms", median(admin_ms), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  // Answers per second of the run and the latency distribution, so a
  // noisy run can be told from a slow one.
  std::vector<int> per_s(static_cast<size_t>(loop.elapsed_s) + 1);
  for (const Sample& s : loop.samples) {
    const double at = std::max(0.0, s.end_s - loop.start_s);
    per_s[std::min(per_s.size() - 1, static_cast<size_t>(at))]++;
  }
  std::cerr << "answers per second:";
  for (int c : per_s) std::cerr << " " << c;
  std::cerr << "\nlatency percentiles (ms):";
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    std::cerr << " p" << q * 100 << "=" << percentile(latency, q);
  }
  std::cerr << "\n";
  // CPU time the hypervisor gave to other guests while this VM wanted it:
  // the usual cause of a run that is slow throughout.
  std::cerr << "host steal: " << loop.steal_frac * 100 << "% of CPU time\n";
  std::cerr << "samples: " << kSetups << " set-ups; " << loop.samples.size()
            << " queries (" << ok << " ok) in " << loop.elapsed_s
            << " s after a " << kWarmupS << " s warm-up; " << admin_ms.size()
            << " registrations; error_frac "
            << (n > 0 ? (n - static_cast<double>(ok)) / n : 0) << "\n";
}

// -- spans --------------------------------------------------------------------

uint64_t SpanLog::open(std::string name, uint64_t query, uint64_t parent) {
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t id = next_id_++;
  open_[id] = spans_.size();
  spans_.push_back(Span{id, parent, query, std::move(name), start, start, 0});
  return id;
}

void SpanLog::close(uint64_t id, uint64_t count) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  Span& span = spans_[it->second];
  span.end_s = end;
  span.count = count;
  open_.erase(it);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "[";
  bool first = true;
  for (const Span& s : spans()) {
    out << (first ? "\n" : ",\n") << "{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"query\":" << s.query
        << ",\"name\":\"" << s.name << "\",\"start_us\":"
        << static_cast<int64_t>(s.start_s * 1e6)
        << ",\"end_us\":" << static_cast<int64_t>(s.end_s * 1e6)
        << ",\"count\":" << s.count << "}";
    first = false;
  }
  out << "\n]\n";
}

double LayerTotals::per_query_us(const std::string& name) const {
  auto it = seconds.find(name);
  if (it == seconds.end() || queries == 0) return 0;
  return it->second * 1e6 / static_cast<double>(queries);
}

LayerTotals analyze(const std::vector<Span>& spans) {
  LayerTotals totals;
  std::unordered_map<uint64_t, std::vector<const Span*>> by_query;
  for (const Span& s : spans) {
    if (s.query == 0) continue;
    by_query[s.query].push_back(&s);
    totals.seconds[s.name] += s.end_s - s.start_s;
    totals.calls[s.name] += 1;
    totals.counts[s.name] += s.count;
  }
  for (auto& [query, members] : by_query) {
    const Span* root = nullptr;
    std::vector<std::pair<double, double>> covered;
    for (const Span* s : members) {
      if (s->parent == 0) {
        root = s;
      } else if (s->name != "core.query" && s->name != "server.round_trip") {
        covered.emplace_back(s->start_s, s->end_s);
      }
    }
    if (root == nullptr) continue;
    ++totals.queries;
    const double root_s = root->end_s - root->start_s;
    std::sort(covered.begin(), covered.end());
    double union_s = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (auto [lo, hi] : covered) {
      lo = std::max(lo, root->start_s);
      hi = std::min(hi, root->end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) union_s += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) union_s += cur_hi - cur_lo;
    totals.root_s += root_s;
    totals.unattributed_s += std::max(0.0, root_s - union_s);
  }
  return totals;
}

void layer_from_spans(const LayerTotals& totals, double answer_rows,
                      double rows_fetched, LayerValues& values) {
  auto sec = [&](const char* name) {
    auto it = totals.seconds.find(name);
    return it == totals.seconds.end() ? 0.0 : it->second;
  };
  auto cnt = [&](const char* name) {
    auto it = totals.counts.find(name);
    return it == totals.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto calls = [&](const char* name) {
    auto it = totals.calls.find(name);
    return it == totals.calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double queries = static_cast<double>(totals.queries);
  if (queries == 0) return;
  values["oql.parse_us"] = totals.per_query_us("oql.parse");
  values["optimizer.optimize_us"] = totals.per_query_us("optimizer.optimize");
  values["wrapper.submit_us"] = totals.per_query_us("wrapper.submit");
  values["wrapper.calls_per_query"] = calls("wrapper.submit") / queries;
  const double submitted_rows = cnt("wrapper.submit");
  if (submitted_rows > 0) {
    values["wrapper.reformat_ns_per_row"] =
        (sec("wrapper.submit") - sec("sources.memdb.execute")) * 1e9 /
        submitted_rows;
  }
  values["sources.memdb.execute_us"] =
      totals.per_query_us("sources.memdb.execute");
  if (calls("core.query") > 0) {
    const double mediator_s =
        std::max(0.0, sec("core.query") - sec("optimizer.optimize") -
                          sec("wrapper.submit") -
                          sec("sources.memdb.execute"));
    values["physical.mediator_us"] = mediator_s * 1e6 / queries;
    if (rows_fetched > 0) {
      values["physical.ns_per_row_fetched"] = mediator_s * 1e9 / rows_fetched;
    }
  }
  values["core.encode_us"] = totals.per_query_us("core.encode");
  values["server.encode_us"] = totals.per_query_us("server.encode");
  if (answer_rows > 0) {
    values["core.answer_bytes_per_row"] = cnt("core.encode") / answer_rows;
    values["server.frame_bytes_per_row"] = cnt("server.encode") / answer_rows;
  }
  if (totals.root_s > 0) {
    values["bench.unattributed_frac"] = totals.unattributed_s / totals.root_s;
  }
}

void prune_metrics(const Mediator& mediator,
                   const std::vector<std::string>& shapes,
                   LayerValues& values) {
  double extents = 0;
  double consultations = 0;
  double memo_hits = 0;
  for (const std::string& shape : shapes) {
    const optimizer::PruneStats prune = mediator.explain_report(shape).prune;
    extents += static_cast<double>(prune.extents_considered);
    consultations += static_cast<double>(prune.grammar_consultations);
    memo_hits += static_cast<double>(prune.grammar_memo_hits);
  }
  values["fedcat.extents_considered"] =
      extents / static_cast<double>(shapes.size());
  if (consultations > 0) {
    values["fedcat.grammar_memo_hit_frac"] = memo_hits / consultations;
  }
}

namespace {
/// Every per-layer metric with its unit, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"oql.parse_us", "us"},
    {"optimizer.optimize_us", "us"},
    {"optimizer.plans_considered", "count"},
    {"fedcat.extents_considered", "count"},
    {"fedcat.grammar_memo_hit_frac", "frac"},
    {"core.plan_cache_hit_frac", "frac"},
    {"wrapper.submit_us", "us"},
    {"wrapper.calls_per_query", "count"},
    {"wrapper.reformat_ns_per_row", "ns"},
    {"sources.memdb.execute_us", "us"},
    {"sources.memdb.scanned_per_returned", "ratio"},
    {"net.rows_shipped_per_query", "count"},
    {"physical.mediator_us", "us"},
    {"physical.ns_per_row_fetched", "ns"},
    {"core.encode_us", "us"},
    {"core.answer_bytes_per_row", "B"},
    {"core.residuals_per_answer", "count"},
    {"server.encode_us", "us"},
    {"server.frame_bytes_per_row", "B"},
    {"server.busy_frac", "frac"},
    {"server.oversize_failures", "count"},
    {"server.conn_usable_after_oversize", "count"},
    {"cache.hit_frac", "frac"},
    {"cache.invalidations_per_admin_op", "count"},
    {"sched.queued_frac", "frac"},
    {"sched.queue_wait_ms", "ms"},
    {"exec.dispatched_per_query", "count"},
    {"exec.retries", "count"},
    {"session.resubmissions", "count"},
    {"bench.trace_overhead_frac", "frac"},
    {"bench.unattributed_frac", "frac"},
    {"bench.admin_lag_ms", "ms"},
    {"bench.admin_ops", "count"},
};
}  // namespace

void add_per_layer(Report& report, const LayerValues& values) {
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = values.find(name);
    report.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

// -- tracing decorator --------------------------------------------------------

TracingWrapper::TracingWrapper(
    std::shared_ptr<wrapper::Wrapper> inner, SpanLog* log,
    const wrapper::MemDbWrapper* memdb,
    std::unordered_map<std::string, const memdb::Database*> tables)
    : inner_(std::move(inner)),
      log_(log),
      memdb_(memdb),
      tables_(std::move(tables)) {}

wrapper::SubmitResult TracingWrapper::submit(
    const catalog::Repository& repository, const algebra::LogicalPtr& expr,
    const wrapper::BindingMap& bindings) {
  if (!log_->enabled()) return inner_->submit(repository, expr, bindings);
  const uint64_t query = log_->context_query();
  const uint64_t parent = log_->context_parent();
  wrapper::SubmitResult result;
  {
    ScopedSpan span(log_, "wrapper.submit", query, parent);
    result = inner_->submit(repository, expr, bindings);
    if (result.status == wrapper::SubmitResult::Status::Ok &&
        result.data.is_collection()) {
      span.count = result.data.items().size();
    }
  }
  if (memdb_ == nullptr ||
      result.status != wrapper::SubmitResult::Status::Ok) {
    return result;
  }
  // The wrapper keeps only its latest MiniSQL text; with concurrent
  // executor threads it may be a sibling call's, so the database is found
  // from the text's own FROM relation.
  const std::string sql = memdb_->last_sql();
  const size_t from = sql.find(" FROM ");
  if (from == std::string::npos) return result;
  const size_t begin = from + 6;
  const size_t end = sql.find_first_of(" ,", begin);
  auto it = tables_.find(sql.substr(begin, end - begin));
  if (it == tables_.end()) return result;
  ScopedSpan span(log_, "sources.memdb.execute", query, parent);
  memdb::Engine engine(it->second);
  span.count = engine.execute_sql(sql).rows.size();
  return result;
}

oql::ExprPtr traced_front_end(SpanLog& log, uint64_t query, uint64_t parent,
                              Mediator& mediator,
                              const Mediator::Options& options,
                              const std::string& text, double* plans) {
  oql::ExprPtr expr;
  {
    ScopedSpan span(&log, "oql.parse", query, parent);
    expr = oql::parse(text);
  }
  ScopedSpan span(&log, "optimizer.optimize", query, parent);
  const fedcat::SnapshotPtr snap = mediator.catalog_snapshot();
  optimizer::OptimizerOptions opt_options = options.optimizer;
  opt_options.vec = options.vec.enabled;
  optimizer::Optimizer opt(
      &snap->catalog,
      [snap](const std::string& name) { return snap->wrapper_by_name(name); },
      &mediator.cost_history(), std::move(opt_options));
  if (options.health.enabled) {
    session::SourceHealthTracker* tracker = &mediator.health_tracker();
    opt.set_health([tracker](const std::string& repository) {
      return tracker->availability(repository);
    });
  }
  *plans += static_cast<double>(opt.optimize(expr).plans_considered);
  return expr;
}

size_t replay_server_encode(const Value& rows) {
  std::vector<server::json::Value::Member> members;
  members.emplace_back("id", server::json::Value::unsigned_integer(1));
  members.emplace_back("complete", server::json::Value::boolean(true));
  members.emplace_back("rows", server::value_to_json(rows));
  members.emplace_back("residuals", server::json::Value::array({}));
  const std::string frame =
      server::encode_frame(server::FrameType::kComplete,
                           server::json::Value::object(std::move(members))
                               .dump());
  return frame.size();
}

// -- administration -----------------------------------------------------------

const char* const kSchemaOdl = R"(
  interface Person (extent person) {
    attribute Long id;
    attribute String name;
    attribute Short salary; };
  interface Gadget (extent gadget) {
    attribute Long serial;
    attribute String label; };
)";

PersonFederation::PersonFederation(Mediator& mediator, SplitMix64& rng,
                                   int sources, int rows,
                                   net::LatencyModel latency, int down,
                                   SpanLog* log)
    : wrapper(std::make_shared<wrapper::MemDbWrapper>()),
      salary(static_cast<size_t>(sources)) {
  std::unordered_map<std::string, const memdb::Database*> tables;
  std::string extents;
  for (int s = 0; s < sources; ++s) {
    const std::string n = std::to_string(s);
    auto db = std::make_unique<memdb::Database>("db" + n);
    auto& table = db->create_table("person" + n,
                                   {{"id", memdb::ColumnType::Int},
                                    {"name", memdb::ColumnType::Text},
                                    {"salary", memdb::ColumnType::Int}});
    for (int r = 0; r < rows; ++r) {
      const int pay = static_cast<int>(rng.next_below(kSalaries));
      salary[s].push_back(pay);
      table.insert({Value::integer(r), name(s, r), Value::integer(pay)});
    }
    table.create_index("person" + n + "_id", "id");
    table.create_index("person" + n + "_salary", "salary");
    wrapper->attach_database("r" + n, db.get());
    tables["person" + n] = db.get();
    mediator.register_repository(
        catalog::Repository{"r" + n, "host" + n, "db", "10.0.0." + n}, latency,
        s == down ? net::Availability::always_down()
                  : net::Availability::always_up());
    extents += "extent person" + n + " of Person wrapper w0 repository r" + n +
               ";\n";
    databases.push_back(std::move(db));
  }
  std::shared_ptr<wrapper::Wrapper> w0 = wrapper;
  if (log != nullptr) {
    w0 = std::make_shared<TracingWrapper>(wrapper, log, wrapper.get(), tables);
  }
  mediator.register_wrapper("w0", w0);
  mediator.register_wrapper("wg", std::make_shared<wrapper::MemDbWrapper>());
  mediator.execute_odl(extents);
}

void PersonFederation::build_oracle() {
  by_salary.assign(salary.size(), std::vector<std::vector<int>>(kSalaries));
  for (size_t s = 0; s < salary.size(); ++s) {
    for (size_t r = 0; r < salary[s].size(); ++r) {
      by_salary[s][salary[s][r]].push_back(static_cast<int>(r));
    }
  }
}

Value PersonFederation::name(int source, int row) {
  return Value::string("p" + std::to_string(source) + "_" +
                       std::to_string(row));
}

std::string registration_odl(uint64_t k) {
  const std::string n = std::to_string(k);
  return "ra" + n + " := Repository(host=\"adm" + n +
         "\", name=\"db\", address=\"10.200." + std::to_string(k / 250) +
         "." + std::to_string(k % 250) + "\");\n" + "extent gadget" + n +
         " of Gadget wrapper wg repository ra" + n + ";\n";
}

AdminWriter::AdminWriter(Mediator& mediator, uint64_t* next, double delay_s,
                         double seconds)
    : thread_([this, &mediator, next, delay_s, seconds] {
        const double start = now_s() + delay_s;
        for (uint64_t k = 0;; ++k) {
          const double due = start + static_cast<double>(k) * kPeriodS;
          if (due >= start + seconds) break;
          // Sleep to just short of the due time, then spin: a plain sleep
          // overshoots by a scheduler wake-up, which would be measured as
          // registration latency.
          const double nap = due - now_s() - 0.0005;
          if (nap > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(nap));
          }
          while (now_s() < due) {
          }
          const double sent = now_s();
          try {
            mediator.execute_odl(registration_odl((*next)++));
          } catch (const std::exception& e) {
            load_.errors.push_back(std::string("registration: ") + e.what());
          }
          load_.latency_ms.push_back((now_s() - due) * 1e3);
          load_.lag_ms.push_back((sent - due) * 1e3);
        }
      }) {}

const AdminLoad& AdminWriter::join() {
  if (thread_.joinable()) thread_.join();
  return load_;
}

void record_admin(Report& report, const AdminLoad& admin) {
  report.attempted += admin.latency_ms.size();
  for (const std::string& e : admin.errors) report.fail(e);
}

void admin_layer_metrics(const AdminLoad& admin,
                         LayerValues& values) {
  double lag = 0;
  for (double l : admin.lag_ms) lag += l;
  const double ops = static_cast<double>(admin.lag_ms.size());
  values["bench.admin_ops"] = ops;
  if (ops > 0) values["bench.admin_lag_ms"] = lag / ops;
}

}  // namespace e2e
