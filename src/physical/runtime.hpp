// The mediator run-time system (§3.3, §4 of the paper).
//
// Executes a physical plan against the wrappers through the simulated
// network, under a query deadline:
//
//   "Query processing proceeds normally until a designed time has
//    elapsed. At this point, data sources are classified as unavailable
//    ... The query is rewritten into two parts, one which contains a
//    query to the unavailable data, and the other ... data." (§4)
//
// All exec calls of a plan are issued logically in parallel at the same
// virtual instant (§4: "These calls proceed in parallel. Calls to
// available data sources succeed. Calls to unavailable data sources
// block."). A call whose simulated latency exceeds the deadline is
// classified unavailable. The query's elapsed virtual time is the max
// completed-call latency, or the full deadline when anything blocked.
//
// Results propagate as (data, residuals):
//   * exec: data when the source answered, otherwise its logical form
//     becomes a residual;
//   * filter/project distribute over residuals (filter(union(d, r)) =
//     union(filter(d), filter(r)));
//   * a join with any residual input turns entirely residual — its
//     logical form references only extents, so resubmission refetches
//     both sides (the submit operator cannot ship data between sources,
//     §3.2, so this is also what the paper's algebra can express);
//   * union concatenates.
// The final answer is union(residuals..., data) — a query again.
//
// Two execution modes share the operator code (DESIGN.md §2, "Execution
// concurrency"):
//   * virtual-time (ExecContext::dispatcher == nullptr): the seed's
//     deterministic simulation — calls run sequentially, parallelism is
//     accounted as max over latencies, the VirtualClock advances;
//   * wall-clock (dispatcher set): exec leaves are prefetched onto the
//     dispatcher's thread pool, simulated latency is actually waited
//     out, blips are retried with backoff, and elapsed time is measured.
#pragma once

#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "algebra/logical.hpp"
#include "cache/result_cache.hpp"
#include "catalog/catalog.hpp"
#include "exec/dispatcher.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "oql/eval.hpp"
#include "physical/plan.hpp"
#include "sched/scheduler.hpp"
#include "value/rules.hpp"
#include "vec/batch.hpp"
#include "vec/ops.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::physical {

/// Everything the runtime needs from the mediator.
struct ExecContext {
  const catalog::Catalog* catalog = nullptr;
  net::Network* network = nullptr;
  net::VirtualClock* clock = nullptr;
  /// Resolves a wrapper object name to the wrapper. Never returns null.
  std::function<wrapper::Wrapper*(const std::string&)> wrapper_by_name;
  /// Extra collections visible to predicate/projection evaluation
  /// (materialized auxiliary extents for nested subqueries); may be null.
  const oql::CollectionResolver* resolver = nullptr;
  /// Wall-clock executor; null selects the sequential virtual-time path.
  exec::ParallelDispatcher* dispatcher = nullptr;
  /// Per-source admission control (src/sched/); null (the default) means
  /// every call goes straight to the dispatcher. Only consulted in
  /// wall-clock mode, and only for direct fetches — a cache hit or a
  /// coalesced waiter never holds a token.
  sched::QueryScheduler* scheduler = nullptr;
  /// Identity of the submitting query for the scheduler's fair queue
  /// (round-robin across query ids); assigned by the mediator.
  uint64_t query_id = 0;
  /// Submit-result cache + single-flight coalescer (src/cache/); null
  /// (the default) preserves the fetch-every-time §4 semantics. Only
  /// successful replies are cached — residual outcomes never are.
  cache::ResultCache* cache = nullptr;
  /// Query deadline in seconds of virtual time (§4's "designated time").
  double deadline_s = std::numeric_limits<double>::infinity();
  /// §2.1: "At run-time, the wrapper checks that these types are indeed
  /// the same." When set, every env-shaped row a wrapper returns is
  /// validated against its extent's interface (TypeError on mismatch).
  bool validate_rows = false;
  /// Cost-history recording hook (§3.3: "When the exec call finishes, the
  /// arguments of the call, the time taken and the amount of data
  /// generated is recorded"); may be empty.
  std::function<void(const std::string& repository,
                     const algebra::LogicalPtr& remote, double time_s,
                     size_t rows)>
      record_exec;
  /// Circuit-breaker admission (src/session/): when set and returning
  /// false for a repository, the exec leaf short-circuits — its residual
  /// is emitted immediately, with no network call and no deadline wait.
  /// Consulted exactly once per source call; may be empty.
  std::function<bool(const std::string& repository)> admit_source;
  /// Health outcome feed: every finished source call (success or final
  /// failure) reports (repository, available, latency_s). The mediator
  /// wires this to the SourceHealthTracker in virtual-time mode; in
  /// wall-clock mode the dispatcher's outcome listener reports instead.
  /// May be empty.
  std::function<void(const std::string& repository, bool available,
                     double latency_s)>
      report_health;
  /// Tracing context (src/obs/): when set, every source call records an
  /// "exec" span (repository, remote expression, attempts, latency,
  /// rows, outcome) and circuit refusals record "short_circuit" instants
  /// under it. Default-off: one pointer check per site.
  obs::ObsContext obs;
  /// Columnar batch execution (src/vec/), on by default. Wrappers reply
  /// in columns (wrapper/rows.hpp), and exec leaves keep those tables:
  /// filter, project and hash join run batch-wise on them, as do a
  /// union of their batches and a planned aggregate of them. Row input
  /// (a declined reply, a constant, a row-path operator's output) is
  /// converted when flat; each operator falls back whenever the data or
  /// the expression is outside the vectorizable subset, and rows are
  /// rebuilt once, at the answer. Leaf batches are cut at the wrappers'
  /// capacity (VecOptions' default), not at `batch_rows`. Off, every
  /// leaf is turned into rows and the run is the row path. Purely an
  /// execution-strategy switch: answers are bag-equal to the row path
  /// (enforced by tests/test_vec_differential.cpp), and virtual-time
  /// accounting is untouched.
  vec::VecOptions vec;
  /// Per-operator rows/sec counters ("vec.filter.rows", "vec.filter.ns",
  /// ...); null disables recording.
  obs::Registry* metrics = nullptr;
};

struct RunStats {
  size_t exec_calls = 0;
  size_t unavailable_calls = 0;  ///< down, past-deadline, or open-circuit
  size_t short_circuit_calls = 0;  ///< subset: refused by an open circuit
  size_t rows_fetched = 0;
  size_t retry_attempts = 0;  ///< wall-clock mode: attempts beyond the first
  size_t cache_hits = 0;       ///< source calls served from a stored entry
  size_t cache_coalesced = 0;  ///< source calls that joined an in-flight
                               ///< identical fetch (single-flight)
  size_t shed_calls = 0;  ///< subset of unavailable: shed by the scheduler
                          ///< (queue full / queue deadline / drain) and
                          ///< converted to §4 residuals
  /// Column batches the run handled: leaf replies, converted inputs
  /// and vec operators' outputs.
  size_t vec_batches = 0;
  size_t vec_leaf_batches = 0;  ///< subset: arrived in a wrapper's reply
  size_t vec_converted_batches = 0;  ///< subset: converted from row input
  size_t vec_rows = 0;       ///< rows that flowed through vec operators
  /// vec-eligible sites that fell back to rows: a reply whose columns
  /// the rules declined, an input from_rows declined, an operator whose
  /// expression did not compile.
  size_t vec_fallbacks = 0;
  /// Rows rebuilt as Values from columns: the answer's, and those of an
  /// input a row-path operator (or the row path itself) needed.
  size_t rows_rebuilt = 0;
  double elapsed_s = 0;  ///< virtual (or wall, in wall-clock mode) time

  /// Accumulation across runs (aux materialization, resubmissions).
  RunStats& operator+=(const RunStats& other) {
    exec_calls += other.exec_calls;
    unavailable_calls += other.unavailable_calls;
    short_circuit_calls += other.short_circuit_calls;
    rows_fetched += other.rows_fetched;
    retry_attempts += other.retry_attempts;
    cache_hits += other.cache_hits;
    cache_coalesced += other.cache_coalesced;
    shed_calls += other.shed_calls;
    vec_batches += other.vec_batches;
    vec_leaf_batches += other.vec_leaf_batches;
    vec_converted_batches += other.vec_converted_batches;
    vec_rows += other.vec_rows;
    vec_fallbacks += other.vec_fallbacks;
    rows_rebuilt += other.rows_rebuilt;
    elapsed_s += other.elapsed_s;
    return *this;
  }
};

struct RunResult {
  /// Data part of the answer (a bag); the aggregate's value when run()
  /// reduced a complete answer.
  Value data;
  /// Residual logical branches; empty means the answer is complete.
  std::vector<algebra::LogicalPtr> residuals;
  RunStats stats;

  bool complete() const { return residuals.empty(); }
};

class Runtime {
 public:
  explicit Runtime(ExecContext context);

  /// Executes the plan; advances the virtual clock by the elapsed time.
  /// With `reduce`, a complete answer is reduced to that aggregate's
  /// value: batch-wise when the answer is columnar, by the value rule
  /// over rows otherwise (the rule's errors propagate). An incomplete
  /// answer keeps its partial bag, unreduced. With `distinct`, the data
  /// first collapses to its distinct items (a select distinct's branches
  /// are each distinct, their union need not be), and an unreduced
  /// answer is a set, as the evaluator's distinct answers are.
  RunResult run(const PhysicalPtr& plan,
                std::optional<Aggregate> reduce = std::nullopt,
                bool distinct = false);

 private:
  struct Outcome {
    std::vector<Value> data;  ///< env structs or projected values
    /// Columnar form of the data (vec mode). When set, `data` is empty
    /// and the rows live here; ensure_rows() converts back on demand
    /// (operator fallback, final answer).
    std::optional<vec::Table> batch;
    std::vector<algebra::LogicalPtr> residuals;
  };
  /// One source call: the wrapper's reply plus the (possibly retried)
  /// network outcome. Produced on a pool thread in wall-clock mode.
  struct Fetch {
    wrapper::SubmitResult submit;
    exec::DispatchOutcome net;
    /// How the reply was obtained; cache-served fetches skip the health
    /// report, cost-history record and row validation (no new source
    /// observation was made).
    enum class Served { Source, CacheHit, Coalesced };
    Served served = Served::Source;
    /// Shed by the scheduler before any network attempt: the call turns
    /// into a §4 residual (counted separately from plain unavailability).
    bool shed = false;
  };

  Outcome eval(const PhysicalPtr& node);
  Outcome eval_exec(const Physical& node);
  Outcome eval_join(const Physical& node);
  Outcome eval_bind_join(const Physical& node);
  /// Collapses an Outcome's columnar form back to rows (no-op without
  /// one). Called on operator fallback and before the final answer.
  void ensure_rows(Outcome* out);
  /// Converts an Outcome's rows to columns when vec is on and the rows
  /// are flat (no-op when already columnar); otherwise keeps the rows,
  /// counting the fallback. Called by the batch operators on their
  /// inputs.
  void ensure_batch(Outcome* out);
  /// The reduction of a complete outcome.
  Value aggregate_outcome(Outcome* out, Aggregate fn);
  /// Collapses an outcome's data to its distinct items, in columns or
  /// in rows (the same multiset either way).
  void distinct_outcome(Outcome* out);
  /// Shared exec machinery: runs `remote` at `repository` through
  /// `wrapper_name`; on unavailability the residual is
  /// `logical_for_residual`. `origin` identifies the plan node for
  /// prefetch lookup (null for bind-join probes, whose remote expression
  /// is built at eval time). `record_shape` overrides the expression the
  /// cost history records the call under (bind-join probes record under
  /// the plan's canonical one-key probe_shape, not the literal-laden
  /// expression actually shipped); null records under `remote`.
  Outcome call_source(const Physical* origin, const std::string& repository,
                      const std::string& wrapper_name,
                      const algebra::LogicalPtr& remote,
                      const algebra::LogicalPtr& logical_for_residual,
                      const algebra::LogicalPtr& record_shape = nullptr);
  /// Wrapper submit + simulated network call, in either mode. Touches
  /// only thread-safe components, so it can run on a pool thread. Checks
  /// the result cache first (hit / join an identical in-flight fetch /
  /// lead and publish); fetch_direct is the uncached machinery.
  Fetch fetch_from_source(const std::string& repository,
                          const std::string& wrapper_name,
                          const algebra::LogicalPtr& remote);
  Fetch fetch_direct(const std::string& repository,
                     const std::string& wrapper_name,
                     const algebra::LogicalPtr& remote);
  bool wall_clock_mode() const { return context_.dispatcher != nullptr; }
  /// Wall-clock mode: launch every exec leaf of `plan` onto the pool.
  void prefetch_execs(const PhysicalPtr& plan);
  /// Blocks until every still-pending prefetched call finished, so pool
  /// tasks never outlive this Runtime (exception path, DAG-shaped plans).
  void drain_prefetched() noexcept;

  ExecContext context_;
  oql::Evaluator evaluator_;
  double issue_time_ = 0;      ///< virtual instant the execs are issued
  double max_latency_ = 0;     ///< slowest completed call
  bool any_blocked_ = false;   ///< at least one call missed the deadline
  RunStats stats_;
  std::unordered_map<const Physical*, std::future<Fetch>> prefetched_;
  /// Exec leaves refused by admit_source at prefetch time (wall-clock
  /// mode) — call_source short-circuits them without consulting the
  /// admission hook a second time (admit has trial-admission side
  /// effects in the circuit breaker).
  std::unordered_set<const Physical*> denied_;
};

}  // namespace disco::physical
