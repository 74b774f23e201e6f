// wide_pushdown: 64 memdb repositories x 2,000 Person rows behind the full
// select/project/join grammar, one repository always down. Selective
// queries ship few rows, so planning over the wide federation dominates
// and every answer is a §4 partial answer with one residual.
#include <iostream>

#include "bench.hpp"

namespace e2e {
namespace {

constexpr int kSources = 64;
constexpr int kRows = 2000;
constexpr int kSalaries = PersonFederation::kSalaries;
constexpr int kClients = 2;

struct WideWorld {
  WideWorld(uint64_t seed, SpanLog* log)
      : down(static_cast<int>(seed % kSources)) {
    options.network_seed = seed;
    mediator = std::make_unique<Mediator>(options);
    mediator->execute_odl(kSchemaOdl);
    SplitMix64 rng(seed);
    people = std::make_unique<PersonFederation>(
        *mediator, rng, kSources, kRows,
        net::LatencyModel{0.010, 0.00002, 0.001}, down, log);
  }

  /// Shape 0: point query on id; 1: equality on salary; 2: narrow salary
  /// range projecting a struct. `with_down` includes the down repository
  /// (the complete answer §4 resubmission must reach).
  Planned plan(int shape, int param, bool with_down) const {
    Planned p;
    p.residuals = with_down ? 0 : 1;
    for (int s = 0; s < kSources; ++s) {
      if (s == down && !with_down) continue;
      if (shape == 0) {
        p.expected.add(PersonFederation::name(s, param));
      } else if (shape == 1) {
        for (int r : people->by_salary[s][param]) {
          p.expected.add(PersonFederation::name(s, r));
        }
      } else {
        for (int v = param; v <= param + 4; ++v) {
          for (int r : people->by_salary[s][v]) {
            p.expected.add(Value::strct(
                {{"id", Value::integer(r)}, {"salary", Value::integer(v)}}));
          }
        }
      }
    }
    const std::string k = std::to_string(param);
    if (shape == 0) {
      p.text = "select x.name from x in person where x.id = " + k;
    } else if (shape == 1) {
      p.text = "select x.name from x in person where x.salary = " + k;
    } else {
      p.text =
          "select struct(id: x.id, salary: x.salary) from x in person "
          "where x.salary >= " + k + " and x.salary <= " +
          std::to_string(param + 4);
    }
    return p;
  }

  static int param_for(int shape, SplitMix64& rng) {
    if (shape == 0) return static_cast<int>(rng.next_below(kRows));
    if (shape == 1) return static_cast<int>(rng.next_below(kSalaries));
    return static_cast<int>(rng.next_below(kSalaries - 4));
  }

  Mediator::Options options;
  int down;
  // Declared before the mediator so the databases outlive it.
  std::unique_ptr<PersonFederation> people;
  std::unique_ptr<Mediator> mediator;
};

/// §4 contract, untimed: for each shape the partial answer's residual,
/// resubmitted once the down repository is back, completes the answer.
void check_resubmission(WideWorld& world, uint64_t seed, Report& report) {
  SplitMix64 rng(seed ^ 0x5eedULL);
  const std::string down = "r" + std::to_string(world.down);
  for (int shape = 0; shape < 3; ++shape) {
    ++report.attempted;
    const int param = WideWorld::param_for(shape, rng);
    const Planned partial = world.plan(shape, param, false);
    const Planned full = world.plan(shape, param, true);
    try {
      const Answer answer = world.mediator->query(partial.text);
      std::string error = check_answer(answer, partial);
      if (error.empty()) {
        world.mediator->network().set_availability(
            down, net::Availability::always_up());
        const Answer rest =
            world.mediator->query(answer.residual_queries().front());
        world.mediator->network().set_availability(
            down, net::Availability::always_down());
        BagPrint merged = print_of(answer.data());
        merged.add(print_of(rest.data()));
        if (!rest.complete() || !(merged == full.expected)) {
          error = partial.text + ": residual + data != complete answer";
        }
      }
      if (!error.empty()) report.fail(error);
    } catch (const std::exception& e) {
      report.fail(partial.text + ": " + e.what());
    }
  }
}

}  // namespace

Report run_wide_pushdown(const Args& args) {
  Report report;
  SpanLog log;
  double setup_s = 0;
  std::unique_ptr<WideWorld> world = timed_setup<WideWorld>(
      kSetups, &setup_s, [&] {
        return std::make_unique<WideWorld>(args.seed,
                                           args.trace ? &log : nullptr);
      });
  world->people->build_oracle();

  std::vector<SplitMix64> rngs;
  for (int c = 0; c < kClients; ++c) {
    rngs.emplace_back(args.seed * 0x9e3779b97f4a7c15ULL + 17 * (c + 1));
  }
  const Planner planner = [&](int client, uint64_t k) {
    const int shape = static_cast<int>((k + static_cast<uint64_t>(client)) % 3);
    return world->plan(shape, WideWorld::param_for(shape, rngs[client]),
                       false);
  };

  uint64_t next_registration = 0;
  if (!args.trace) {
    untraced_in_process(*world->mediator, kClients, args.seconds, setup_s,
                        planner, &next_registration, report);
    check_resubmission(*world, args.seed, report);
  } else {
    LayerValues values;
    SplitMix64 shape_rng(args.seed);
    std::vector<std::string> shapes;
    for (int shape = 0; shape < 3; ++shape) {
      shapes.push_back(
          world->plan(shape, WideWorld::param_for(shape, shape_rng), false)
              .text);
    }
    traced_in_process(*world->mediator, world->options, log, args.seconds,
                      planner, shapes, world->people->wrapper.get(),
                      &next_registration, report, values);
    check_resubmission(*world, args.seed, report);
    add_per_layer(report, values);
    log.write_json(args.out_dir + "/spans-wide_pushdown.json");
  }
  return report;
}

}  // namespace e2e
