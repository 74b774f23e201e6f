// Shared pieces of the end-to-end benchmark: command-line arguments,
// closed-loop sampling and the end-to-end metrics, order-independent
// answer fingerprints, the benchmark-owned span log, the tracing
// decorator wrapper and the per-layer metrics, the open-loop admin
// writer, and the memdb Person federation two workloads share.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/disco.hpp"

namespace e2e {

using namespace disco;

/// Seconds on the steady clock since the process started.
double now_s();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the span log is written to at exit (inside the checkout).
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run hands back to main(): the operation counts and the
/// metrics of the requested kind. The run is correct when nothing failed.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few failure descriptions, printed to stderr.
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& why);
};

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 if empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// -- answer checks ------------------------------------------------------------

/// Order-independent fingerprint of a bag: element count plus the sum of
/// a mixed hash of every element, so two bags compare equal exactly when
/// they hold the same elements with the same multiplicities (up to a
/// 64-bit hash collision). Linear time, which keeps checking a
/// 100k-row answer far cheaper than the query that produced it.
struct BagPrint {
  uint64_t count = 0;
  uint64_t sum = 0;
  void add(const Value& item);
  void add(const BagPrint& other) {
    count += other.count;
    sum += other.sum;
  }
  bool operator==(const BagPrint& other) const {
    return count == other.count && sum == other.sum;
  }
};
BagPrint print_of(const Value& bag);

// -- closed-loop sampling -----------------------------------------------------

/// One answered (or failed) query as the client saw it.
struct Sample {
  double latency_ms = 0;
  double sim_ms = 0;  ///< simulated network time of the answer
  uint64_t rows = 0;
  bool ok = false;
  double end_s = 0;   ///< now_s() when the answer was in
  std::string error;  ///< why the query failed or its check did not pass
};

/// Untimed closed-loop warm-up before a measured loop: the result cache
/// fills, the cost history learns and lazy set-up finishes.
inline constexpr double kWarmupS = 2;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 7;

struct LoopResult {
  std::vector<Sample> samples;
  double start_s = 0;
  double elapsed_s = 0;
  uint64_t warmup_ok = 0;  ///< queries answered during the warm-up
  /// Share of CPU time stolen by the hypervisor over the loop (diagnostic).
  double steal_frac = 0;
};
/// Runs `clients` threads, each calling `one(client, k)` for k = 0, 1, ...
/// for `warmup_s` + `seconds`; returns the samples that started after the
/// warm-up and the measured wall time. `one` must not throw.
LoopResult closed_loop(int clients, double seconds,
                       const std::function<Sample(int client, uint64_t k)>& one,
                       double warmup_s = 0);

/// Counts every sample as attempted and every failed one as failed.
void record_failures(Report& report, const LoopResult& loop);

/// The end-to-end metrics every workload reports from its untraced run,
/// with their sample counts on stderr. `sim_ms_override` replaces the
/// per-sample simulated time (socket workload).
void add_end_to_end(Report& report, double setup_s, const LoopResult& loop,
                    const std::vector<double>& admin_ms,
                    double sim_ms_override = -1);

// -- spans --------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root
  uint64_t query = 0;   ///< spans of one query share this
  std::string name;
  double start_s = 0;
  double end_s = 0;
  uint64_t count = 0;   ///< rows / bytes the layer handled, when it has one
};

/// In-memory span log. Thread-safe; written out once at exit.
class SpanLog {
 public:
  /// Spans are recorded only while enabled; the decorator wrapper is a
  /// plain forwarder otherwise.
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  uint64_t open(std::string name, uint64_t query, uint64_t parent);
  void close(uint64_t id, uint64_t count = 0);
  std::vector<Span> spans() const;
  void write_json(const std::string& path) const;

  /// The query and span that source calls made right now belong to. The
  /// traced runs use one client, so this is unambiguous; executor threads
  /// read it when the decorator wrapper records a submit.
  void set_context(uint64_t query, uint64_t parent) {
    context_query_.store(query);
    context_parent_.store(parent);
  }
  uint64_t context_query() const { return context_query_.load(); }
  uint64_t context_parent() const { return context_parent_.load(); }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::unordered_map<uint64_t, size_t> open_;  // guarded by mutex_
  uint64_t next_id_ = 1;  // guarded by mutex_
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> context_query_{0};
  std::atomic<uint64_t> context_parent_{0};
};

/// RAII span; `count` may be set before it closes.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t query, uint64_t parent)
      : log_(log), id_(log->open(std::move(name), query, parent)) {}
  ~ScopedSpan() { log_->close(id_, count); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }
  uint64_t count = 0;

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Per-query layer totals derived from the span log. Self time of the
/// unattributed remainder: root duration minus the union of every
/// non-container span of that query ("core.query" and "server.round_trip"
/// wrap the program's insides, which no benchmark span can see into).
struct LayerTotals {
  uint64_t queries = 0;
  std::unordered_map<std::string, double> seconds;  ///< by span name
  std::unordered_map<std::string, uint64_t> calls;  ///< by span name
  std::unordered_map<std::string, uint64_t> counts;  ///< summed Span::count
  double root_s = 0;
  double unattributed_s = 0;
  double per_query_us(const std::string& name) const;
};
LayerTotals analyze(const std::vector<Span>& spans);

/// Per-layer metric values by name; anything a workload does not set is
/// reported as 0 (the layer does no work there, e.g. server.* in-process).
using LayerValues = std::unordered_map<std::string, double>;

/// Fills the span-derived layer metrics. `answer_rows` is the number of
/// rows in the traced answers, `rows_fetched` the rows the mediator
/// received from wrappers (RunStats::rows_fetched).
void layer_from_spans(const LayerTotals& totals, double answer_rows,
                      double rows_fetched, LayerValues& values);

/// fedcat.* from explain_report().prune over one query text per shape
/// (untimed; explain plans without executing).
void prune_metrics(const Mediator& mediator,
                   const std::vector<std::string>& shapes, LayerValues& values);

/// Appends every per-layer metric, in the order BENCHMARK.json lists them.
void add_per_layer(Report& report, const LayerValues& values);

/// Decorator registered in place of a real wrapper during the traced run:
/// forwards capabilities(), kind() and stat_gauges(), and records one
/// "wrapper.submit" span per submit() (count = rows returned). Around a
/// memdb wrapper it also replays the MiniSQL text the wrapper shipped
/// through a fresh memdb::Engine as a "sources.memdb.execute" span, which
/// is the source's own execution time.
class TracingWrapper : public wrapper::Wrapper {
 public:
  TracingWrapper(std::shared_ptr<wrapper::Wrapper> inner, SpanLog* log,
                 const wrapper::MemDbWrapper* memdb = nullptr,
                 std::unordered_map<std::string, const memdb::Database*>
                     tables = {});

  grammar::Grammar capabilities() const override {
    return inner_->capabilities();
  }
  wrapper::SubmitResult submit(const catalog::Repository& repository,
                               const algebra::LogicalPtr& expr,
                               const wrapper::BindingMap& bindings) override;
  std::string kind() const override { return inner_->kind(); }
  std::vector<std::pair<std::string, uint64_t>> stat_gauges() const override {
    return inner_->stat_gauges();
  }

 private:
  std::shared_ptr<wrapper::Wrapper> inner_;
  SpanLog* log_;
  const wrapper::MemDbWrapper* memdb_;
  /// Source relation name -> the database holding it.
  std::unordered_map<std::string, const memdb::Database*> tables_;
};

/// The mediator's front end replayed under "oql.parse" and
/// "optimizer.optimize" spans: parses `text`, then optimizes it with the
/// optimizer Mediator::query would run, built the way
/// Mediator::make_optimizer builds it (pinned snapshot, the mediator's
/// cost history and OptimizerOptions, health-aware costing when `options`
/// enable health). Adds the plans considered to `*plans`; returns the
/// parsed query.
oql::ExprPtr traced_front_end(SpanLog& log, uint64_t query, uint64_t parent,
                              Mediator& mediator,
                              const Mediator::Options& options,
                              const std::string& text, double* plans);

/// The daemon's answer encoding replayed on a decoded answer:
/// value_to_json + dump + encode_frame of a COMPLETE frame. Returns bytes.
size_t replay_server_encode(const Value& rows);

/// Runs `build` `times` times, destroying every world but the last, and
/// returns the median build time with the last world.
template <typename World>
std::unique_ptr<World> timed_setup(
    int times, double* median_s,
    const std::function<std::unique_ptr<World>()>& build) {
  std::vector<double> took;
  std::unique_ptr<World> world;
  for (int i = 0; i < times; ++i) {
    world.reset();
    const double t0 = now_s();
    world = build();
    took.push_back(now_s() - t0);
  }
  *median_s = median(took);
  return world;
}

// -- administration -----------------------------------------------------------

/// The ODL text of registration number `k`: one repository and one extent
/// of the Gadget interface, which no query reads.
std::string registration_odl(uint64_t k);

/// What the open-loop admin writer saw.
struct AdminLoad {
  std::vector<double> latency_ms;  ///< done - due, per registration
  std::vector<double> lag_ms;      ///< sent - due, per registration
  std::vector<std::string> errors;
};

/// The open-loop admin writer every workload runs beside its queries:
/// registration k is due at start + k * 100 ms (10 per second) and is
/// timed from when it was due, not from when it was sent, so a stall in
/// epoch publishing shows as latency and lag instead of silence. It
/// starts after `delay_s` and issues registrations for `seconds`.
class AdminWriter {
 public:
  static constexpr double kPeriodS = 0.1;

  /// `next` numbers registrations so names never repeat in a mediator;
  /// it must outlive the writer.
  AdminWriter(Mediator& mediator, uint64_t* next, double delay_s,
              double seconds);
  ~AdminWriter() { join(); }
  AdminWriter(const AdminWriter&) = delete;
  AdminWriter& operator=(const AdminWriter&) = delete;

  /// Waits for the last registration; the result is complete afterwards.
  const AdminLoad& join();

 private:
  AdminLoad load_;
  std::thread thread_;  // declared last: it uses load_
};

/// Counts every registration as attempted and every failed one as failed.
void record_admin(Report& report, const AdminLoad& admin);

/// bench.admin_ops (registrations issued) and bench.admin_lag_ms (mean
/// lateness of the writer behind its schedule).
void admin_layer_metrics(const AdminLoad& admin,
                         LayerValues& values);

/// The paper's Person interface, and the Gadget interface that admin
/// registrations target and no query reads. Every workload defines both.
extern const char* const kSchemaOdl;

/// `sources` memdb repositories r0.. of `rows` Person rows each (id = row
/// number, name "p<s>_<r>", salary uniform in [0, 1000) drawn from `rng`),
/// indexed on id and salary, served by one MemDbWrapper registered as w0
/// (behind a TracingWrapper when `log` is set), plus the wrapper wg the
/// Gadget registrations name. Repository `down` (if any) is AlwaysDown.
struct PersonFederation {
  static constexpr int kSalaries = 1000;

  PersonFederation(Mediator& mediator, SplitMix64& rng, int sources, int rows,
                   net::LatencyModel latency, int down, SpanLog* log);

  /// Answer oracle: row ids by salary, per repository.
  void build_oracle();
  static Value name(int source, int row);

  std::vector<std::unique_ptr<memdb::Database>> databases;
  std::shared_ptr<wrapper::MemDbWrapper> wrapper;
  std::vector<std::vector<int>> salary;  ///< [source][row]
  std::vector<std::vector<std::vector<int>>> by_salary;  ///< [source][salary]
};

// -- in-process workloads -----------------------------------------------------

/// One query to issue and what its answer must be.
struct Planned {
  std::string text;
  /// Expected data part (bag answers).
  BagPrint expected;
  /// Scalar answers (count) compare exactly against this instead.
  bool scalar = false;
  Value expected_scalar;
  /// Residual queries the answer must carry (§4 partial answers).
  size_t residuals = 0;
};
using Planner = std::function<Planned(int client, uint64_t k)>;

/// "" when `answer` is what `planned` expects, else why not.
std::string check_answer(const Answer& answer, const Planned& planned);

/// Closed loop of `clients` threads over Mediator::query + Answer::to_oql,
/// after a kWarmupS warm-up.
LoopResult in_process_loop(Mediator& mediator, int clients, double seconds,
                           const Planner& planner);

/// The traced run of an in-process workload: half of `seconds` untraced
/// with one client (the overhead baseline), half traced with one client,
/// the admin writer beside both, then the span- and counter-derived layer
/// metrics. `shapes` holds one query text per shape, for the untimed
/// explain_report() pruning counters.
void traced_in_process(Mediator& mediator, const Mediator::Options& options,
                       SpanLog& log, double seconds, const Planner& planner,
                       const std::vector<std::string>& shapes,
                       const wrapper::MemDbWrapper* memdb,
                       uint64_t* next_registration, Report& report,
                       LayerValues& values);

/// The untraced run of an in-process workload: `clients` closed-loop
/// threads and the admin writer for `seconds` after the warm-up.
void untraced_in_process(Mediator& mediator, int clients, double seconds,
                         double setup_s, const Planner& planner,
                         uint64_t* next_registration, Report& report);

Report run_wide_pushdown(const Args& args);
Report run_bulk_getonly(const Args& args);
Report run_socket_mixed(const Args& args);

}  // namespace e2e
