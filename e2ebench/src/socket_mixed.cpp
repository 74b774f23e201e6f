// socket_mixed: a server::Server on loopback in front of 8 memdb
// repositories x 30,000 rows, configured like disco_serverd (wall-clock
// executor, health, result cache, scheduler, plan cache, session
// workers). Two SUBMIT{subscribe} clients in a closed loop send half hot
// (repeated, cache-served) and half cold (never-repeated) queries while
// an open-loop admin writer registers a repository and an extent every
// 100 ms, so every registration publishes a new catalog epoch.
#include <iostream>
#include <limits>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/values.hpp"

namespace e2e {
namespace {

constexpr int kSources = 8;
constexpr int kRows = 30000;
constexpr int kSalaries = PersonFederation::kSalaries;
constexpr int kClients = 2;
constexpr int kRange = 300;  // 1% of a repository's rows
constexpr int kHot = 8;
constexpr double kAnswerTimeoutS = 10;

struct SocketWorld {
  SocketWorld(uint64_t seed, SpanLog* log) {
    // disco_serverd's option set.
    options.network_seed = seed;
    options.exec.workers = 4;
    options.exec.latency_scale = 0.01;
    options.exec.call_deadline_s = 5.0;
    options.health.enabled = true;
    options.health.failure_threshold = 2;
    options.health.open_cooldown_s = 5.0;
    options.health.probe_interval_s = 2.0;
    options.session.workers = 4;
    options.session.retry_interval_s = 0.05;
    options.cache.enabled = true;
    options.sched.enabled = true;
    options.enable_plan_cache = true;
    mediator = std::make_unique<Mediator>(options);
    mediator->execute_odl(kSchemaOdl);
    SplitMix64 rng(seed);
    people = std::make_unique<PersonFederation>(
        *mediator, rng, kSources, kRows, net::LatencyModel{0.010, 0.0001, 0},
        -1, log);
    server = std::make_unique<server::Server>(*mediator);
    server->start();

    point_base = static_cast<int>(rng.next_below(kRows));
    range_base = static_cast<int>(rng.next_below(kRows - kRange));
  }

  void build_oracle() {
    people->build_oracle();
    for (int h = 0; h < kHot; ++h) {
      hot.push_back(h % 2 == 0 ? point(next_point++)
                               : salary_eq((point_base + 37 * h) % kSalaries));
    }
  }

  /// Point query number `c`: ids step through a permutation of the id
  /// space, so no two point texts of one run repeat.
  Planned point(uint64_t c) const {
    const int id = static_cast<int>((point_base + c * 7919) % kRows);
    Planned p;
    p.text = "select x.name from x in person where x.id = " +
             std::to_string(id);
    for (int s = 0; s < kSources; ++s) {
      p.expected.add(PersonFederation::name(s, id));
    }
    return p;
  }

  Planned salary_eq(int pay) const {
    Planned p;
    p.text = "select x.name from x in person where x.salary = " +
             std::to_string(pay);
    for (int s = 0; s < kSources; ++s) {
      for (int r : people->by_salary[s][pay]) {
        p.expected.add(PersonFederation::name(s, r));
      }
    }
    return p;
  }

  /// ~1% id range number `c`, never repeated within a run either.
  Planned id_range(uint64_t c) const {
    const int lo = static_cast<int>((range_base + c * 7817) % (kRows - kRange));
    Planned p;
    p.text =
        "select struct(id: x.id, salary: x.salary) from x in person "
        "where x.id >= " + std::to_string(lo) + " and x.id < " +
        std::to_string(lo + kRange);
    for (int s = 0; s < kSources; ++s) {
      for (int r = lo; r < lo + kRange; ++r) {
        p.expected.add(Value::strct(
            {{"id", Value::integer(r)},
             {"salary", Value::integer(people->salary[s][r])}}));
      }
    }
    return p;
  }

  /// Even k: one of the hot texts; odd k: a cold point or range query.
  Planned plan(uint64_t k) {
    if (k % 2 == 0) return hot[(k / 2) % kHot];
    if (k % 4 == 1) return point(next_point++);
    return id_range(next_range++);
  }

  Mediator::Options options;
  // Declared in destruction-safe order: server, then mediator, then the
  // databases its wrapper reads.
  std::unique_ptr<PersonFederation> people;
  std::unique_ptr<Mediator> mediator;
  std::unique_ptr<server::Server> server;
  std::vector<Planned> hot;
  int point_base = 0;
  int range_base = 0;
  std::atomic<uint64_t> next_point{0};
  std::atomic<uint64_t> next_range{0};
  uint64_t next_registration = 0;
};

/// One SUBMIT{subscribe} round trip, from sending SUBMIT to receiving and
/// decoding COMPLETE; the handle is released afterwards (untimed).
struct RoundTrip {
  Sample sample;
  bool busy = false;
  Value rows;
};

RoundTrip round_trip(std::unique_ptr<server::Client>& client,
                     const SocketWorld& world, const Planned& planned,
                     SpanLog* log = nullptr, uint64_t qid = 0,
                     uint64_t parent = 0) {
  RoundTrip out;
  Sample& sample = out.sample;
  try {
    std::optional<ScopedSpan> span;
    if (log != nullptr) {
      span.emplace(log, "server.round_trip", qid, parent);
      log->set_context(qid, span->id());
    }
    const double t0 = now_s();
    const server::Response reply =
        client->submit(planned.text, std::numeric_limits<double>::infinity(),
                       true);
    if (reply.is_busy()) {
      out.busy = true;
      sample.error = planned.text + ": BUSY";
    } else if (reply.type != server::FrameType::kSubmitted) {
      sample.error = planned.text + ": " + reply.payload.dump();
    } else {
      const uint64_t id = reply.payload.at("id").as_uint64();
      for (;;) {
        auto event = client->wait_event(
            id,
            {server::FrameType::kPartial, server::FrameType::kComplete,
             server::FrameType::kQueryFailed},
            kAnswerTimeoutS);
        if (!event) {
          sample.error = planned.text + ": no COMPLETE within timeout";
          break;
        }
        if (event->type == server::FrameType::kPartial) continue;
        if (event->type == server::FrameType::kQueryFailed) {
          sample.error = planned.text + ": QUERY_FAILED";
          break;
        }
        out.rows = server::json_to_value(event->payload.at("rows"));
        sample.latency_ms = (now_s() - t0) * 1e3;
        span.reset();
        sample.rows = out.rows.items().size();
        if (!(print_of(out.rows) == planned.expected)) {
          sample.error = planned.text + ": COMPLETE rows differ from the " +
                         std::to_string(planned.expected.count) + " expected";
        }
        break;
      }
      client->cancel(id, /*release_only=*/true);
    }
  } catch (const std::exception& e) {
    sample.error = planned.text + ": " + e.what();
    // A broken connection is replaced so later queries are measured.
    try {
      client = std::make_unique<server::Client>(world.server->host(),
                                                world.server->port());
    } catch (const std::exception&) {
    }
  }
  sample.ok = sample.error.empty();
  return out;
}

std::vector<std::unique_ptr<server::Client>> connect(const SocketWorld& world,
                                                     int clients) {
  std::vector<std::unique_ptr<server::Client>> out;
  for (int c = 0; c < clients; ++c) {
    out.push_back(std::make_unique<server::Client>(world.server->host(),
                                                   world.server->port()));
  }
  return out;
}

/// Untimed: one `select x from x in person` (~240k rows, over the 8 MiB
/// frame cap) on its own connection, then STATS on that connection.
void oversize_probe(SocketWorld& world, LayerValues& values) {
  server::Client probe(world.server->host(), world.server->port());
  bool delivered = false;
  try {
    const uint64_t id = probe.submit_id(
        "select x from x in person", std::numeric_limits<double>::infinity(),
        true);
    for (;;) {
      auto event = probe.wait_event(
          id,
          {server::FrameType::kPartial, server::FrameType::kComplete,
           server::FrameType::kQueryFailed},
          60);
      if (!event || event->type == server::FrameType::kQueryFailed) break;
      if (event->type == server::FrameType::kPartial) continue;
      delivered = event->payload.at("rows").items().size() ==
                  static_cast<size_t>(kSources) * kRows;
      break;
    }
  } catch (const std::exception& e) {
    std::cerr << "oversize probe: " << e.what() << "\n";
  }
  bool usable = false;
  try {
    usable = probe.stats().type == server::FrameType::kStatsResult;
  } catch (const std::exception& e) {
    std::cerr << "oversize probe, STATS afterwards: " << e.what() << "\n";
  }
  values["server.oversize_failures"] = delivered ? 0 : 1;
  values["server.conn_usable_after_oversize"] = usable ? 1 : 0;
}

void untraced(SocketWorld& world, const Args& args, double setup_s,
              Report& report) {
  auto clients = connect(world, kClients);
  const double busy0 = world.mediator->traffic_stats().busy_s;
  AdminWriter writer(*world.mediator, &world.next_registration, kWarmupS,
                     args.seconds);
  const LoopResult loop = closed_loop(
      kClients, args.seconds,
      [&](int client, uint64_t k) {
        return round_trip(clients[client], world,
                          world.plan(k + static_cast<uint64_t>(client)))
            .sample;
      },
      kWarmupS);
  const AdminLoad& admin = writer.join();
  record_failures(report, loop);
  record_admin(report, admin);
  // Simulated network time covers the warm-up too, so it is divided by
  // every answer since busy0.
  uint64_t ok = loop.warmup_ok;
  for (const Sample& s : loop.samples) ok += s.ok ? 1 : 0;
  const double sim_ms =
      ok > 0 ? (world.mediator->traffic_stats().busy_s - busy0) * 1e3 /
                   static_cast<double>(ok)
             : 0;
  add_end_to_end(report, setup_s, loop, admin.latency_ms, sim_ms);
}

void traced(SocketWorld& world, SpanLog& log, const Args& args,
            Report& report) {
  auto clients = connect(world, 1);
  LayerValues values;
  const double half = args.seconds / 2;
  uint64_t k = 0;

  // Untraced baseline with the same single client.
  LoopResult plain;
  {
    AdminWriter writer(*world.mediator, &world.next_registration, kWarmupS,
                       half);
    plain = closed_loop(
        1, half,
        [&](int, uint64_t) {
          return round_trip(clients[0], world, world.plan(k++)).sample;
        },
        kWarmupS);
    record_admin(report, writer.join());
  }
  record_failures(report, plain);

  Mediator& m = *world.mediator;
  const cache::CacheStats cache0 = m.cache_stats();
  const Mediator::PlanCacheStats plans0 = m.plan_cache_stats();
  const exec::MetricsSnapshot exec0 = m.exec_metrics();
  const uint64_t resub0 = m.session_stats().resubmissions;
  const net::TrafficStats traffic0 = m.traffic_stats();
  const memdb::Engine::Stats memdb0 = world.people->wrapper->stats();
  uint64_t busy = 0;
  double plans = 0;
  double answer_rows = 0;
  uint64_t next_query = 1;

  log.set_enabled(true);
  AdminWriter writer(*world.mediator, &world.next_registration, 0, half);
  const LoopResult loop = closed_loop(1, half, [&](int, uint64_t) {
    const Planned planned = world.plan(k++);
    const uint64_t qid = next_query++;
    const double t0 = now_s();
    ScopedSpan root(&log, "e2e", qid, 0);
    try {
      traced_front_end(log, qid, root.id(), m, world.options, planned.text,
                       &plans);
    } catch (const std::exception& e) {
      Sample failed;
      failed.error = planned.text + ": " + e.what();
      return failed;
    }
    RoundTrip trip =
        round_trip(clients[0], world, planned, &log, qid, root.id());
    if (trip.busy) ++busy;
    if (trip.sample.ok) {
      ScopedSpan span(&log, "server.encode", qid, root.id());
      span.count = replay_server_encode(trip.rows);
      answer_rows += static_cast<double>(trip.sample.rows);
    }
    trip.sample.latency_ms = (now_s() - t0) * 1e3;
    return trip.sample;
  });
  const AdminLoad& admin = writer.join();
  log.set_enabled(false);
  record_failures(report, loop);
  record_admin(report, admin);

  const double queries = static_cast<double>(loop.samples.size());
  layer_from_spans(analyze(log.spans()), answer_rows, 0, values);
  const cache::CacheStats cache1 = m.cache_stats();
  const Mediator::PlanCacheStats plans1 = m.plan_cache_stats();
  const exec::MetricsSnapshot exec1 = m.exec_metrics();
  const memdb::Engine::Stats memdb1 = world.people->wrapper->stats();
  const double ops = static_cast<double>(admin.latency_ms.size());
  auto frac = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const double cache_hits = static_cast<double>(cache1.hits - cache0.hits);
  values["optimizer.plans_considered"] = frac(plans, queries);
  const double plan_hits = static_cast<double>(plans1.hits - plans0.hits);
  values["core.plan_cache_hit_frac"] =
      frac(plan_hits,
           plan_hits + static_cast<double>(plans1.misses - plans0.misses));
  values["sources.memdb.scanned_per_returned"] =
      frac(static_cast<double>(memdb1.rows_scanned - memdb0.rows_scanned),
           static_cast<double>(memdb1.rows_returned - memdb0.rows_returned));
  values["net.rows_shipped_per_query"] = frac(
      static_cast<double>(m.traffic_stats().rows - traffic0.rows), queries);
  values["server.busy_frac"] = frac(static_cast<double>(busy), queries);
  values["cache.hit_frac"] =
      frac(cache_hits,
           cache_hits + static_cast<double>(cache1.misses - cache0.misses) +
               static_cast<double>(cache1.coalesced - cache0.coalesced));
  values["cache.invalidations_per_admin_op"] = frac(
      static_cast<double>(cache1.invalidations - cache0.invalidations), ops);
  const double dispatched =
      static_cast<double>(exec1.dispatched - exec0.dispatched);
  const double queued = static_cast<double>(exec1.queued - exec0.queued);
  values["sched.queued_frac"] = frac(queued, dispatched);
  values["sched.queue_wait_ms"] =
      frac((exec1.queue_wait_s - exec0.queue_wait_s) * 1e3, queued);
  values["exec.dispatched_per_query"] = frac(dispatched, queries);
  values["exec.retries"] = static_cast<double>(exec1.retries - exec0.retries);
  values["session.resubmissions"] =
      static_cast<double>(m.session_stats().resubmissions - resub0);
  const double qps_plain =
      static_cast<double>(plain.samples.size()) / plain.elapsed_s;
  values["bench.trace_overhead_frac"] =
      qps_plain > 0 ? 1.0 - (queries / loop.elapsed_s) / qps_plain : 0;
  admin_layer_metrics(admin, values);
  std::cerr << "traced: " << plain.samples.size() << " untraced + "
            << loop.samples.size() << " traced queries (1 client), "
            << admin.latency_ms.size() << " registrations; plan cache "
            << plan_hits << " hits, " << plans1.misses - plans0.misses
            << " misses, " << plans1.invalidations - plans0.invalidations
            << " invalidations\n";

  prune_metrics(m, {world.hot[0].text, world.hot[1].text,
                    world.id_range(0).text},
                values);
  oversize_probe(world, values);
  add_per_layer(report, values);
  log.write_json(args.out_dir + "/spans-socket_mixed.json");
}

}  // namespace

Report run_socket_mixed(const Args& args) {
  Report report;
  SpanLog log;
  double setup_s = 0;
  std::unique_ptr<SocketWorld> world = timed_setup<SocketWorld>(
      kSetups, &setup_s, [&] {
        return std::make_unique<SocketWorld>(args.seed,
                                             args.trace ? &log : nullptr);
      });
  world->build_oracle();
  if (args.trace) {
    traced(*world, log, args, report);
  } else {
    untraced(*world, args, setup_s, report);
  }
  return report;
}

}  // namespace e2e
