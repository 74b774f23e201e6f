// The query loops shared by the two in-process workloads.
#include <iostream>
#include <optional>

#include "bench.hpp"

namespace e2e {

std::string check_answer(const Answer& answer, const Planned& planned) {
  const size_t residuals = answer.residuals().size();
  if (residuals != planned.residuals) {
    return planned.text + ": " + std::to_string(residuals) +
           " residuals, expected " + std::to_string(planned.residuals);
  }
  if (planned.scalar) {
    if (answer.data() == planned.expected_scalar) return "";
    return planned.text + ": answered " + answer.data().to_oql() +
           ", expected " + planned.expected_scalar.to_oql();
  }
  if (!answer.data().is_collection()) {
    return planned.text + ": answer is not a collection";
  }
  const BagPrint got = print_of(answer.data());
  if (got == planned.expected) return "";
  return planned.text + ": " + std::to_string(got.count) +
         " rows not bag-equal to the " +
         std::to_string(planned.expected.count) + " expected";
}

namespace {

uint64_t answer_rows(const Answer& answer) {
  return answer.data().is_collection() ? answer.data().items().size() : 1;
}

/// One untraced query: OQL text in, encoded answer bytes out.
Sample one_query(Mediator& mediator, const Planned& planned) {
  Sample sample;
  try {
    const double t0 = now_s();
    Answer answer = mediator.query(planned.text);
    const std::string encoded = answer.to_oql();
    sample.latency_ms = (now_s() - t0) * 1e3;
    sample.sim_ms = answer.stats().run.elapsed_s * 1e3;
    sample.rows = answer_rows(answer);
    sample.error = encoded.empty() ? "empty encoding"
                                   : check_answer(answer, planned);
  } catch (const std::exception& e) {
    sample.error = planned.text + ": " + e.what();
  }
  sample.ok = sample.error.empty();
  return sample;
}

}  // namespace

LoopResult in_process_loop(Mediator& mediator, int clients, double seconds,
                           const Planner& planner) {
  return closed_loop(
      clients, seconds,
      [&](int client, uint64_t k) {
        return one_query(mediator, planner(client, k));
      },
      kWarmupS);
}

void untraced_in_process(Mediator& mediator, int clients, double seconds,
                         double setup_s, const Planner& planner,
                         uint64_t* next_registration, Report& report) {
  AdminWriter writer(mediator, next_registration, kWarmupS, seconds);
  const LoopResult loop = in_process_loop(mediator, clients, seconds, planner);
  const AdminLoad& admin = writer.join();
  record_failures(report, loop);
  record_admin(report, admin);
  add_end_to_end(report, setup_s, loop, admin.latency_ms);
}

void traced_in_process(Mediator& mediator, const Mediator::Options& options,
                       SpanLog& log, double seconds, const Planner& planner,
                       const std::vector<std::string>& shapes,
                       const wrapper::MemDbWrapper* memdb,
                       uint64_t* next_registration, Report& report,
                       LayerValues& values) {
  const double half = seconds / 2;
  LoopResult plain;
  {
    AdminWriter writer(mediator, next_registration, kWarmupS, half);
    plain = in_process_loop(mediator, 1, half, planner);
    record_admin(report, writer.join());
  }
  record_failures(report, plain);

  prune_metrics(mediator, shapes, values);

  const memdb::Engine::Stats memdb0 =
      memdb != nullptr ? memdb->stats() : memdb::Engine::Stats{};
  const net::TrafficStats traffic0 = mediator.traffic_stats();
  double plans = 0;
  double residuals = 0;
  double rows_fetched = 0;
  double answer_rows_total = 0;
  uint64_t next_query = 1;
  log.set_enabled(true);
  AdminWriter writer(mediator, next_registration, 0, half);
  const LoopResult traced = closed_loop(1, half, [&](int, uint64_t k) {
    const Planned planned = planner(0, k);
    const uint64_t qid = next_query++;
    Sample sample;
    try {
      const double t0 = now_s();
      ScopedSpan root(&log, "e2e", qid, 0);
      const oql::ExprPtr expr = traced_front_end(
          log, qid, root.id(), mediator, options, planned.text, &plans);
      std::optional<Answer> answer;
      {
        ScopedSpan span(&log, "core.query", qid, root.id());
        log.set_context(qid, span.id());
        answer.emplace(mediator.query(expr));
      }
      {
        ScopedSpan span(&log, "core.encode", qid, root.id());
        span.count = answer->to_oql().size();
      }
      sample.latency_ms = (now_s() - t0) * 1e3;
      sample.rows = answer_rows(*answer);
      residuals += static_cast<double>(answer->residuals().size());
      rows_fetched += static_cast<double>(answer->stats().run.rows_fetched);
      answer_rows_total += static_cast<double>(sample.rows);
      sample.error = check_answer(*answer, planned);
    } catch (const std::exception& e) {
      sample.error = planned.text + ": " + e.what();
    }
    sample.ok = sample.error.empty();
    return sample;
  });
  const AdminLoad& admin = writer.join();
  log.set_enabled(false);
  record_failures(report, traced);
  record_admin(report, admin);
  admin_layer_metrics(admin, values);

  const double queries = static_cast<double>(traced.samples.size());
  const LayerTotals totals = analyze(log.spans());
  layer_from_spans(totals, answer_rows_total, rows_fetched, values);
  if (queries > 0) {
    values["optimizer.plans_considered"] = plans / queries;
    values["core.residuals_per_answer"] = residuals / queries;
    values["net.rows_shipped_per_query"] =
        static_cast<double>(mediator.traffic_stats().rows - traffic0.rows) /
        queries;
  }
  if (memdb != nullptr) {
    const memdb::Engine::Stats memdb1 = memdb->stats();
    const double returned =
        static_cast<double>(memdb1.rows_returned - memdb0.rows_returned);
    if (returned > 0) {
      values["sources.memdb.scanned_per_returned"] =
          static_cast<double>(memdb1.rows_scanned - memdb0.rows_scanned) /
          returned;
    }
  }
  const double qps_plain =
      static_cast<double>(plain.samples.size()) / plain.elapsed_s;
  const double qps_traced = queries / traced.elapsed_s;
  if (qps_plain > 0) {
    values["bench.trace_overhead_frac"] = 1.0 - qps_traced / qps_plain;
  }
  std::cerr << "traced: " << plain.samples.size() << " untraced + "
            << traced.samples.size() << " traced queries (1 client)\n";
}

}  // namespace e2e
