#include "physical/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/error.hpp"
#include "oql/printer.hpp"

namespace disco::physical {

Runtime::Runtime(ExecContext context)
    : context_(std::move(context)), evaluator_(context_.resolver) {
  internal_check(context_.catalog != nullptr && context_.network != nullptr &&
                     context_.clock != nullptr,
                 "runtime needs catalog, network and clock");
  internal_check(static_cast<bool>(context_.wrapper_by_name),
                 "runtime needs a wrapper resolver");
}

void Runtime::ensure_rows(Outcome* out) {
  if (!out->batch.has_value()) return;
  std::vector<Value> rows = vec::to_rows(*out->batch);
  stats_.rows_rebuilt += rows.size();
  out->batch.reset();
  if (out->data.empty()) {
    out->data = std::move(rows);
  } else {
    out->data.insert(out->data.end(), std::make_move_iterator(rows.begin()),
                     std::make_move_iterator(rows.end()));
  }
}

void Runtime::ensure_batch(Outcome* out) {
  if (out->batch.has_value() || !context_.vec.enabled) return;
  std::optional<vec::Table> table =
      vec::from_rows(out->data, context_.vec.batch_rows);
  if (!table.has_value()) {
    ++stats_.vec_fallbacks;
    return;
  }
  stats_.vec_batches += table->batches.size();
  stats_.vec_converted_batches += table->batches.size();
  stats_.vec_rows += table->rows();
  out->batch = std::move(table);
  out->data.clear();
}

void Runtime::distinct_outcome(Outcome* out) {
  if (out->batch.has_value()) {
    // First-seen dedup; the row path's Value::set sorts instead. Same
    // multiset either way, which is all bag answers expose.
    out->batch = vec::distinct_table(*out->batch, context_.vec.batch_rows);
  } else {
    out->data = Value::set(std::move(out->data)).items();
  }
}

Value Runtime::aggregate_outcome(Outcome* out, Aggregate fn) {
  if (out->batch.has_value()) {
    obs::ScopedRate rate(context_.metrics, "vec.agg");
    rate.add_rows(out->batch->rows());
    stats_.vec_rows += out->batch->rows();
    if (std::optional<Value> value = vec::aggregate_table(*out->batch, fn)) {
      return *std::move(value);
    }
    ++stats_.vec_fallbacks;
    ensure_rows(out);
  }
  return aggregate(fn, out->data);
}

RunResult Runtime::run(const PhysicalPtr& plan,
                       std::optional<Aggregate> reduce,
                       bool distinct) {
  internal_check(plan != nullptr, "cannot run a null plan");
  stats_ = RunStats{};
  denied_.clear();
  issue_time_ = context_.clock->now();
  max_latency_ = 0;
  any_blocked_ = false;

  const auto wall_start = std::chrono::steady_clock::now();
  Outcome outcome;
  if (wall_clock_mode()) {
    prefetch_execs(plan);
    try {
      outcome = eval(plan);
    } catch (...) {
      drain_prefetched();
      throw;
    }
    drain_prefetched();
  } else {
    outcome = eval(plan);
  }

  double elapsed;
  if (wall_clock_mode()) {
    // Wall-clock mode: the calls genuinely overlapped on the pool and the
    // latency waits really happened; elapsed time is simply measured.
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall_start)
                  .count();
  } else {
    // §4 time accounting: parallel calls; if anything blocked we waited
    // for the whole designated period.
    elapsed = any_blocked_ && std::isfinite(context_.deadline_s)
                  ? context_.deadline_s
                  : max_latency_;
  }
  context_.clock->advance(elapsed);
  stats_.elapsed_s = elapsed;

  RunResult result;
  if (distinct) distinct_outcome(&outcome);
  if (reduce.has_value() && outcome.residuals.empty()) {
    result.data = aggregate_outcome(&outcome, *reduce);
  } else {
    ensure_rows(&outcome);
    result.data = distinct ? Value::set(std::move(outcome.data))
                           : Value::bag(std::move(outcome.data));
  }
  result.residuals = std::move(outcome.residuals);
  result.stats = stats_;
  return result;
}

void Runtime::prefetch_execs(const PhysicalPtr& plan) {
  switch (plan->op) {
    case POp::Exec: {
      PhysicalPtr node = plan;  // keep the node alive inside the task
      if (prefetched_.contains(node.get()) || denied_.contains(node.get())) {
        return;  // shared subplan
      }
      if (context_.admit_source &&
          !context_.admit_source(node->repository)) {
        // Open circuit: never launched; call_source emits the residual.
        denied_.insert(node.get());
        return;
      }
      prefetched_.emplace(
          node.get(), context_.dispatcher->async([this, node] {
            return fetch_from_source(node->repository, node->wrapper,
                                     node->remote);
          }));
      return;
    }
    case POp::Filter:
    case POp::Project:
      prefetch_execs(plan->child);
      return;
    case POp::HashJoin:
    case POp::NestedLoopJoin:
      prefetch_execs(plan->left);
      prefetch_execs(plan->right);
      return;
    case POp::BindJoin:
      // Only the build side: the probe expression depends on the build
      // side's keys and is dispatched when eval_bind_join reaches it.
      prefetch_execs(plan->left);
      return;
    case POp::Union:
      for (const PhysicalPtr& child : plan->children) prefetch_execs(child);
      return;
    case POp::Const:
      return;
  }
}

void Runtime::drain_prefetched() noexcept {
  for (auto& [node, future] : prefetched_) {
    if (future.valid()) future.wait();
  }
  prefetched_.clear();
}

Runtime::Outcome Runtime::eval(const PhysicalPtr& node) {
  switch (node->op) {
    case POp::Exec:
      return eval_exec(*node);
    case POp::Const: {
      Outcome out;
      out.data = node->data.items();
      return out;
    }
    case POp::Filter: {
      Outcome in = eval(node->child);
      ensure_batch(&in);
      Outcome out;
      if (in.batch.has_value()) {
        std::optional<vec::PredicateProgram> program =
            vec::compile_predicate(node->predicate, in.batch->schema);
        if (program.has_value()) {
          obs::ScopedRate rate(context_.metrics, "vec.filter");
          rate.add_rows(in.batch->rows());
          stats_.vec_rows += in.batch->rows();
          out.batch = vec::filter_table(*in.batch, *program);
          stats_.vec_batches += out.batch->batches.size();
        } else {
          ++stats_.vec_fallbacks;
          ensure_rows(&in);
        }
      }
      if (!in.batch.has_value()) {
        for (const Value& env : in.data) {
          oql::Env scope;
          for (const auto& [var, row] : env.fields()) scope.bind(var, row);
          if (evaluator_.eval(node->predicate, scope).as_bool()) {
            out.data.push_back(env);
          }
        }
      }
      // filter(union(d, r)) = union(filter(d), filter(r)).
      for (const algebra::LogicalPtr& residual : in.residuals) {
        out.residuals.push_back(
            algebra::filter(residual, node->predicate));
      }
      return out;
    }
    case POp::Project: {
      Outcome in = eval(node->child);
      ensure_batch(&in);
      Outcome out;
      if (in.batch.has_value()) {
        std::optional<vec::ProjectionProgram> program =
            vec::compile_projection(node->projection, in.batch->schema);
        if (program.has_value()) {
          obs::ScopedRate rate(context_.metrics, "vec.project");
          rate.add_rows(in.batch->rows());
          stats_.vec_rows += in.batch->rows();
          vec::Table projected = vec::project_table(*in.batch, *program);
          stats_.vec_batches += projected.batches.size();
          out.batch = std::move(projected);
          if (node->distinct) distinct_outcome(&out);
        } else {
          ++stats_.vec_fallbacks;
          ensure_rows(&in);
        }
      }
      if (!in.batch.has_value()) {
        out.data.reserve(in.data.size());
        for (const Value& env : in.data) {
          oql::Env scope;
          for (const auto& [var, row] : env.fields()) scope.bind(var, row);
          out.data.push_back(evaluator_.eval(node->projection, scope));
        }
        if (node->distinct) distinct_outcome(&out);
      }
      for (const algebra::LogicalPtr& residual : in.residuals) {
        out.residuals.push_back(
            algebra::project(residual, node->projection, node->distinct));
      }
      return out;
    }
    case POp::HashJoin:
    case POp::NestedLoopJoin:
      return eval_join(*node);
    case POp::BindJoin:
      return eval_bind_join(*node);
    case POp::Union: {
      Outcome out;
      for (const PhysicalPtr& child : node->children) {
        Outcome part = eval(child);
        out.residuals.insert(out.residuals.end(), part.residuals.begin(),
                             part.residuals.end());
        // Batch-wise union merge: splice the part's batches onto the
        // accumulated table (O(#batches), no row copies) while every
        // part stays columnar with one layout; first mismatch falls the
        // whole union back to row concatenation.
        if (part.batch.has_value() && out.data.empty()) {
          if (!out.batch.has_value()) {
            out.batch = std::move(part.batch);
            continue;
          } else {
            obs::ScopedRate rate(context_.metrics, "vec.union");
            rate.add_rows(part.batch->rows());
            stats_.vec_rows += part.batch->rows();
            if (vec::concat_tables(&*out.batch, std::move(*part.batch))) {
              continue;
            }
            ++stats_.vec_fallbacks;
          }
        }
        ensure_rows(&out);
        ensure_rows(&part);
        out.data.insert(out.data.end(),
                        std::make_move_iterator(part.data.begin()),
                        std::make_move_iterator(part.data.end()));
      }
      return out;
    }
  }
  throw InternalError("corrupt physical plan in runtime");
}

Runtime::Fetch Runtime::fetch_from_source(const std::string& repository_name,
                                          const std::string& wrapper_name,
                                          const algebra::LogicalPtr& remote) {
  if (context_.cache == nullptr) {
    return fetch_direct(repository_name, wrapper_name, remote);
  }
  cache::ResultCache::Lookup lookup =
      context_.cache->get_or_begin(repository_name, remote);
  if (lookup.kind == cache::ResultCache::LookupKind::Lead) {
    // This thread fetches for everyone waiting on the same submit. Only
    // a successful reply is published; a refusal or unavailable outcome
    // abandons the ticket (Ticket dtor) and waiters re-race — residual
    // outcomes are never cached.
    Fetch fetch = fetch_direct(repository_name, wrapper_name, remote);
    if (fetch.submit.status == wrapper::SubmitResult::Status::Ok &&
        fetch.net.available) {
      cache::CachedResult cached;
      cached.data = fetch.submit.data;
      cached.table = fetch.submit.table;  // shares the columns
      cached.source_latency_s = fetch.net.latency_s;
      context_.cache->publish(lookup.ticket, std::move(cached));
    }
    return fetch;
  }
  // Hit or Coalesced: the reply is shared-immutable (a Value, or a table
  // whose columns are never written once built), so handing it to many
  // query threads is safe. Zero network latency — a cached answer is
  // faster than the fastest source.
  Fetch fetch;
  const cache::CachedResult& cached = *lookup.result;
  fetch.submit = cached.table.has_value()
                     ? wrapper::SubmitResult::ok(*cached.table)
                     : wrapper::SubmitResult::ok(cached.data);
  fetch.net.available = true;
  fetch.net.attempts = 0;
  fetch.net.latency_s = 0;
  const bool coalesced =
      lookup.kind == cache::ResultCache::LookupKind::Coalesced;
  fetch.served = coalesced ? Fetch::Served::Coalesced : Fetch::Served::CacheHit;
  if (coalesced && context_.dispatcher != nullptr) {
    context_.dispatcher->metrics().on_coalesced();
  }
  if (context_.obs) {
    const uint64_t event =
        context_.obs.trace->instant(context_.obs.span, "cache_hit", "cache");
    context_.obs.trace->tag(event, "repository", repository_name);
    context_.obs.trace->tag(event, "remote",
                            algebra::to_algebra_string(remote));
    if (coalesced) context_.obs.trace->tag(event, "coalesced", "true");
  }
  return fetch;
}

Runtime::Fetch Runtime::fetch_direct(const std::string& repository_name,
                                     const std::string& wrapper_name,
                                     const algebra::LogicalPtr& remote) {
  const catalog::Repository& repository =
      context_.catalog->repository(repository_name);
  wrapper::Wrapper* wrapper = context_.wrapper_by_name(wrapper_name);
  internal_check(wrapper != nullptr,
                 "no wrapper object named '" + wrapper_name + "'");

  // One span per source call, recorded on whatever thread runs the call
  // (a pool thread in wall-clock mode) — the trace's per-thread lanes
  // show dispatch overlap directly.
  obs::ScopedSpan span(context_.obs, "exec", "exec");
  if (span) {
    span.tag("repository", repository_name);
    span.tag("wrapper", wrapper_name);
    span.tag("remote", algebra::to_algebra_string(remote));
    if (std::isfinite(context_.deadline_s)) {
      span.tag("deadline_s", context_.deadline_s);
    }
  }

  // Simulation note: the wrapper computes the reply first so that the
  // network call can price the transfer by its row count; if the source
  // then turns out to be unreachable (or the reply would land past the
  // deadline) the computed data is discarded and the exec is classified
  // unavailable (§4). Only simulated work is wasted.
  wrapper::BindingMap bindings =
      wrapper::bindings_for(remote, *context_.catalog);
  Fetch fetch;
  fetch.submit = wrapper->submit(repository, remote, bindings);
  if (fetch.submit.status == wrapper::SubmitResult::Status::Refused) {
    return fetch;  // call_source throws, on the query's own thread
  }

  const size_t rows = fetch.submit.rows();
  if (wall_clock_mode()) {
    // Per-source admission control (src/sched/): acquire this endpoint's
    // token before touching the dispatcher. Admission happens here — in
    // the leader-only fetch path — so a cache hit or a coalesced waiter
    // never holds a token. A shed admission converts the call into a §4
    // residual without any network attempt.
    double queued_s = 0;
    sched::QueryScheduler::Admission admission;
    if (context_.scheduler != nullptr) {
      admission = context_.scheduler->admit(
          repository_name, context_.query_id, context_.deadline_s);
      queued_s = admission.queued_s;
      if (span && queued_s > 0) span.tag("queued_s", queued_s);
      if (!admission.admitted) {
        fetch.shed = true;
        fetch.net.available = false;
        fetch.net.attempts = 0;
        if (context_.obs) {
          const uint64_t event =
              context_.obs.trace->instant(span.id(), "shed", "sched");
          context_.obs.trace->tag(event, "repository", repository_name);
          context_.obs.trace->tag(
              event, "reason",
              admission.shed_reason ==
                      sched::QueryScheduler::ShedReason::QueueFull
                  ? "queue_full"
                  : (admission.shed_reason ==
                             sched::QueryScheduler::ShedReason::Deadline
                         ? "queue_deadline"
                         : "drained"));
        }
        if (span) span.tag("outcome", "shed");
        return fetch;
      }
    }
    // Retry/backoff/deadline semantics live in the dispatcher; the wait
    // for the (scaled) simulated latency really happens. Time spent
    // queued counts against the query deadline.
    double remaining = context_.deadline_s;
    if (std::isfinite(remaining)) {
      remaining = std::max(0.0, remaining - queued_s);
    }
    fetch.net = context_.dispatcher->call(repository_name, rows, issue_time_,
                                          remaining, span.context());
    // admission.permit releases the token here (RAII), after the call.
    if (fetch.net.available) {
      fetch.net.latency_s += fetch.submit.compute_s;
    }
  } else {
    net::CallOutcome reply =
        context_.network->call(repository_name, rows, issue_time_);
    fetch.net.attempts = 1;
    // Source compute (the wrapper's opt-in cost model) delays the reply
    // exactly like wire time: it is part of the observed latency and
    // counts against the §4 deadline. Zero unless the wrapper opted in.
    fetch.net.latency_s = reply.latency_s + fetch.submit.compute_s;
    if (!reply.available) {
      fetch.net.available = false;
    } else if (fetch.net.latency_s > context_.deadline_s) {
      fetch.net.timed_out = true;
    } else {
      fetch.net.available = true;
    }
  }
  if (span) {
    span.tag("attempts", static_cast<uint64_t>(fetch.net.attempts));
    span.tag("sim_latency_s", fetch.net.latency_s);
    if (fetch.net.wall_s > 0) span.tag("wall_s", fetch.net.wall_s);
    span.tag("rows", static_cast<uint64_t>(
                         fetch.net.available ? rows : size_t{0}));
    span.tag("outcome", fetch.net.available
                            ? "ok"
                            : (fetch.net.timed_out ? "timeout"
                                                   : "unavailable"));
  }
  return fetch;
}

Runtime::Outcome Runtime::call_source(
    const Physical* origin, const std::string& repository_name,
    const std::string& wrapper_name, const algebra::LogicalPtr& remote,
    const algebra::LogicalPtr& logical_for_residual,
    const algebra::LogicalPtr& record_shape) {
  ++stats_.exec_calls;
  // Circuit-breaker admission (src/session/): a refused source turns
  // residual right here — no wrapper work, no network call, and crucially
  // no any_blocked_, so the query does not pay the §4 deadline wait for a
  // source already known to be down. admit_source is consulted exactly
  // once per call (at prefetch time in wall-clock mode, recorded in
  // denied_), because admission has trial side effects in HalfOpen.
  bool refused_by_breaker = false;
  Fetch fetch;
  auto it = origin != nullptr ? prefetched_.find(origin) : prefetched_.end();
  if (it != prefetched_.end()) {
    std::future<Fetch> future = std::move(it->second);
    prefetched_.erase(it);
    fetch = future.get();  // rethrows pool-thread exceptions here
  } else if (origin != nullptr && denied_.contains(origin)) {
    refused_by_breaker = true;
  } else if (context_.admit_source &&
             !context_.admit_source(repository_name)) {
    refused_by_breaker = true;
  } else {
    fetch = fetch_from_source(repository_name, wrapper_name, remote);
  }
  if (refused_by_breaker) {
    ++stats_.unavailable_calls;
    ++stats_.short_circuit_calls;
    if (context_.obs) {
      const uint64_t event = context_.obs.trace->instant(
          context_.obs.span, "short_circuit", "exec");
      context_.obs.trace->tag(event, "repository", repository_name);
      context_.obs.trace->tag(event, "remote",
                              algebra::to_algebra_string(remote));
    }
    Outcome out;
    out.residuals.push_back(logical_for_residual);
    return out;
  }
  if (fetch.submit.status == wrapper::SubmitResult::Status::Refused) {
    throw CapabilityError(
        "wrapper '" + wrapper_name + "' refused a checked expression: " +
        fetch.submit.detail);
  }
  // A cache-served reply made no new source observation: feeding it to
  // the health tracker or the cost history would fabricate a zero-latency
  // call, and its rows were validated when first fetched.
  const bool cache_served = fetch.served != Fetch::Served::Source;
  if (cache_served) {
    if (fetch.served == Fetch::Served::CacheHit) {
      ++stats_.cache_hits;
    } else {
      ++stats_.cache_coalesced;
    }
  }
  // A shed call never reached the network: reporting it to the health
  // tracker would fabricate an unavailability observation for a source
  // that is merely busy.
  if (context_.report_health && !cache_served && !fetch.shed) {
    context_.report_health(repository_name, fetch.net.available,
                           fetch.net.latency_s);
  }

  if (fetch.net.attempts > 1) {
    stats_.retry_attempts += fetch.net.attempts - 1;
  }
  if (!fetch.net.available) {
    ++stats_.unavailable_calls;
    if (fetch.shed) ++stats_.shed_calls;
    any_blocked_ = true;
    Outcome out;
    out.residuals.push_back(logical_for_residual);
    return out;
  }

  wrapper::SubmitResult result = std::move(fetch.submit);
  const size_t rows = result.rows();
  max_latency_ = std::max(max_latency_, fetch.net.latency_s);
  stats_.rows_fetched += rows;
  if (context_.record_exec && !cache_served) {
    context_.record_exec(repository_name,
                         record_shape != nullptr ? record_shape : remote,
                         fetch.net.latency_s, rows);
  }
  // The outcome owns the reply: a table as it arrived (its columns are
  // shared with the cache, never copied), or the rows, copied when
  // shared (a cached reply). The row path (vec off, the differentials'
  // reference) and row validation take rows.
  Outcome out;
  if (result.table.has_value()) {
    out.batch = std::move(result.table);
    if (context_.vec.enabled) {
      stats_.vec_batches += out.batch->batches.size();
      stats_.vec_leaf_batches += out.batch->batches.size();
    }
  } else {
    out.data = std::move(result.data).take_items();
    if (result.columns_declined && context_.vec.enabled) {
      ++stats_.vec_fallbacks;
    }
  }
  const bool validate = context_.validate_rows && !cache_served &&
                        remote->op != algebra::LOp::Project;
  if (!context_.vec.enabled || validate) ensure_rows(&out);
  if (validate) {
    // §2.1's run-time type check: every variable's rows must inhabit the
    // extent's interface. Project-topped replies carry computed values,
    // not typed rows, and are skipped. Map variables to interfaces by
    // walking the remote expression's get nodes.
    std::unordered_map<std::string, std::string> by_var;
    std::function<void(const algebra::LogicalPtr&)> collect =
        [&](const algebra::LogicalPtr& node) {
          switch (node->op) {
            case algebra::LOp::Get:
              by_var[node->var] =
                  context_.catalog->extent(node->extent).interface;
              return;
            case algebra::LOp::Filter:
              collect(node->child);
              return;
            case algebra::LOp::Join:
              collect(node->left);
              collect(node->right);
              return;
            default:
              return;
          }
        };
    collect(remote);
    for (const Value& env : out.data) {
      for (const auto& [var, row] : env.fields()) {
        auto it = by_var.find(var);
        if (it == by_var.end()) continue;
        context_.catalog->types().check_row(it->second, row);
      }
    }
  }
  return out;
}

Runtime::Outcome Runtime::eval_exec(const Physical& node) {
  return call_source(&node, node.repository, node.wrapper, node.remote,
                     node.logical);
}

namespace {

/// Extracts the (var, attribute) of a hash-key path.
std::pair<std::string, std::string> key_parts(const oql::ExprPtr& key) {
  internal_check(key->kind == oql::ExprKind::Path &&
                     key->child->kind == oql::ExprKind::Ident,
                 "hash key must be var.attribute");
  return {key->child->name, key->name};
}

Value merge_envs(const Value& a, const Value& b) {
  std::vector<std::pair<std::string, Value>> fields = a.fields();
  fields.insert(fields.end(), b.fields().begin(), b.fields().end());
  return Value::strct(std::move(fields));
}

}  // namespace

Runtime::Outcome Runtime::eval_join(const Physical& node) {
  Outcome left = eval(node.left);
  Outcome right = eval(node.right);

  Outcome out;
  if (!left.residuals.empty() || !right.residuals.empty()) {
    // A join cannot keep half of its inputs: its logical form (which only
    // references extents) becomes the residual; fetched data for the
    // other side is dropped and will be refetched on resubmission. This
    // is the algebra's own limit: submit has RPC semantics and "cannot
    // accept data from another data source" (§3.2).
    out.residuals.push_back(node.logical);
    return out;
  }

  if (node.op == POp::HashJoin) {
    ensure_batch(&left);
    ensure_batch(&right);
  }
  if (node.op == POp::HashJoin && left.batch.has_value() &&
      right.batch.has_value() &&
      left.batch->schema.shape == vec::RowShape::Env &&
      right.batch->schema.shape == vec::RowShape::Env) {
    auto [left_var, left_attr] = key_parts(node.left_key);
    auto [right_var, right_attr] = key_parts(node.right_key);
    const int left_col = left.batch->schema.index_of(left_var, left_attr);
    const int right_col =
        right.batch->schema.index_of(right_var, right_attr);
    bool vec_ok = left_col >= 0 && right_col >= 0;
    std::optional<vec::PredicateProgram> residual_program;
    if (vec_ok && node.predicate != nullptr) {
      vec::Schema merged;
      merged.shape = vec::RowShape::Env;
      merged.columns = left.batch->schema.columns;
      merged.columns.insert(merged.columns.end(),
                            right.batch->schema.columns.begin(),
                            right.batch->schema.columns.end());
      residual_program = vec::compile_predicate(node.predicate, merged);
      vec_ok = residual_program.has_value();
    }
    if (vec_ok) {
      obs::ScopedRate rate(context_.metrics, "vec.hashjoin");
      rate.add_rows(left.batch->rows() + right.batch->rows());
      stats_.vec_rows += left.batch->rows() + right.batch->rows();
      out.batch = vec::hash_join_tables(
          *left.batch, *right.batch, left_col, right_col,
          residual_program.has_value() ? &*residual_program : nullptr,
          context_.vec.batch_rows);
      stats_.vec_batches += out.batch->batches.size();
      return out;
    }
    ++stats_.vec_fallbacks;
  }
  ensure_rows(&left);
  ensure_rows(&right);

  auto residual_ok = [&](const Value& env) {
    if (node.predicate == nullptr) return true;
    oql::Env scope;
    for (const auto& [var, row] : env.fields()) scope.bind(var, row);
    return evaluator_.eval(node.predicate, scope).as_bool();
  };

  if (node.op == POp::HashJoin) {
    auto [right_var, right_attr] = key_parts(node.right_key);
    auto [left_var, left_attr] = key_parts(node.left_key);
    std::unordered_map<uint64_t, std::vector<const Value*>> buckets;
    for (const Value& env : right.data) {
      const Value& key = env.field(right_var).field(right_attr);
      buckets[key.hash()].push_back(&env);
    }
    for (const Value& lenv : left.data) {
      const Value& key = lenv.field(left_var).field(left_attr);
      auto it = buckets.find(key.hash());
      if (it == buckets.end()) continue;
      for (const Value* renv : it->second) {
        if (renv->field(right_var).field(right_attr) != key) continue;
        Value merged = merge_envs(lenv, *renv);
        if (residual_ok(merged)) out.data.push_back(std::move(merged));
      }
    }
    return out;
  }

  for (const Value& lenv : left.data) {
    for (const Value& renv : right.data) {
      Value merged = merge_envs(lenv, renv);
      if (residual_ok(merged)) out.data.push_back(std::move(merged));
    }
  }
  return out;
}

Runtime::Outcome Runtime::eval_bind_join(const Physical& node) {
  Outcome left = eval(node.left);
  Outcome out;
  if (!left.residuals.empty()) {
    out.residuals.push_back(node.logical);
    return out;
  }
  // The bind join extracts build-side keys and probes row-wise; its
  // probe-side fetch is the dominant cost, so it stays on the row path.
  ensure_rows(&left);
  if (left.data.empty()) {
    return out;  // join over an empty build side is empty
  }

  auto [left_var, left_attr] = key_parts(node.left_key);
  auto [right_var, right_attr] = key_parts(node.right_key);

  // Distinct build-side keys, in deterministic (first-seen) order. Hash
  // buckets with an equality check replace Value::set's full sort — the
  // build side was just materialized, an O(n log n) ordering of deep
  // values buys nothing here.
  std::vector<Value> keys;
  keys.reserve(left.data.size());
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  for (const Value& env : left.data) {
    const Value& key = env.field(left_var).field(left_attr);
    std::vector<size_t>& bucket = seen[key.hash()];
    bool duplicate = false;
    for (size_t idx : bucket) {
      if (keys[idx] == key) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    bucket.push_back(keys.size());
    keys.push_back(key);
  }
  // Ship the keys in key order: a sorted disjunction gives the source's
  // ordered index a monotone probe sequence (and makes the shipped SQL
  // canonical for identical key sets regardless of build-side order).
  std::stable_sort(keys.begin(), keys.end(),
                   [](const Value& a, const Value& b) {
                     return Value::compare(a, b) < 0;
                   });

  // Probe expression: base remote plus the key disjunction — unless the
  // key set is too large to be worth shipping.
  algebra::LogicalPtr remote = node.remote;
  if (keys.size() <= node.max_bind_keys) {
    std::vector<oql::ExprPtr> terms;
    terms.reserve(keys.size());
    for (const Value& key : keys) {
      terms.push_back(oql::binary(
          oql::BinaryOp::Eq,
          oql::path(oql::ident(right_var), right_attr), oql::literal(key)));
    }
    oql::ExprPtr bind_pred = std::move(terms.front());
    for (size_t k = 1; k < terms.size(); ++k) {
      bind_pred = oql::binary(oql::BinaryOp::Or, std::move(bind_pred),
                              std::move(terms[k]));
    }
    if (remote->op == algebra::LOp::Filter) {
      remote = algebra::filter(
          remote->child,
          oql::binary(oql::BinaryOp::And, remote->predicate, bind_pred));
    } else {
      remote = algebra::filter(remote, bind_pred);
    }
  }

  // The probe is recorded in the cost history under the plan's canonical
  // probe_shape (one placeholder key), not under the literal-laden
  // disjunction — so future optimizations can ask "what does a bound
  // probe cost here" and observe indexed probes coming back fast.
  Outcome right =
      call_source(/*origin=*/nullptr, node.repository, node.wrapper, remote,
                  node.logical, node.probe_shape);
  if (!right.residuals.empty()) {
    out.residuals.push_back(node.logical);
    return out;
  }
  ensure_rows(&right);

  // Hash join exactly as POp::HashJoin (the bind filter narrowed the
  // probe side but per-tuple matching still applies).
  auto residual_ok = [&](const Value& env) {
    if (node.predicate == nullptr) return true;
    oql::Env scope;
    for (const auto& [var, row] : env.fields()) scope.bind(var, row);
    return evaluator_.eval(node.predicate, scope).as_bool();
  };
  std::unordered_map<uint64_t, std::vector<const Value*>> buckets;
  for (const Value& env : right.data) {
    buckets[env.field(right_var).field(right_attr).hash()].push_back(&env);
  }
  for (const Value& lenv : left.data) {
    const Value& key = lenv.field(left_var).field(left_attr);
    auto it = buckets.find(key.hash());
    if (it == buckets.end()) continue;
    for (const Value* renv : it->second) {
      if (renv->field(right_var).field(right_attr) != key) continue;
      Value merged = merge_envs(lenv, *renv);
      if (residual_ok(merged)) out.data.push_back(std::move(merged));
    }
  }
  return out;
}

}  // namespace disco::physical
