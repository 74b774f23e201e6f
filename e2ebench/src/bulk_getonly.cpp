// bulk_getonly: one CSV repository and one kvstore repository, 100,000
// Person rows each. Salary ranges fall outside both grammars, so both
// sources ship every row and per-row work (wrapper reformatting, Value
// construction, mediator filter/project/join, answer encoding) dominates.
#include <iostream>

#include "bench.hpp"

namespace e2e {
namespace {

constexpr int kRows = 100000;
constexpr int kSalaries = 1000;
constexpr int kShapes = 4;
constexpr int kVariants = 4;

struct BulkWorld {
  BulkWorld(uint64_t seed, SpanLog* log) {
    options.network_seed = seed;
    mediator = std::make_unique<Mediator>(options);
    mediator->execute_odl(kSchemaOdl);
    SplitMix64 rng(seed);
    std::string text = "id,name,salary\n";
    for (int r = 0; r < kRows; ++r) {
      const int pay = static_cast<int>(rng.next_below(kSalaries));
      csv_salary.push_back(pay);
      text += std::to_string(r) + ",c" + std::to_string(r) + "," +
              std::to_string(pay) + "\n";
    }
    auto csv_wrapper = std::make_shared<wrapper::CsvWrapper>();
    csv_wrapper->attach_table("rc", csv::parse_csv("person0", text));

    kvstore::KvCollection& people = kv.create_collection("person1", "id");
    for (int r = 0; r < kRows; ++r) {
      const int pay = static_cast<int>(rng.next_below(kSalaries));
      kv_salary.push_back(pay);
      people.put(Value::strct({{"id", Value::integer(r)},
                               {"name", Value::string("k" + std::to_string(r))},
                               {"salary", Value::integer(pay)}}));
    }
    auto kv_wrapper = std::make_shared<wrapper::KvWrapper>();
    kv_wrapper->attach_store("rk", &kv);

    std::shared_ptr<wrapper::Wrapper> wc = csv_wrapper;
    std::shared_ptr<wrapper::Wrapper> wk = kv_wrapper;
    if (log != nullptr) {
      wc = std::make_shared<TracingWrapper>(csv_wrapper, log);
      wk = std::make_shared<TracingWrapper>(kv_wrapper, log);
    }
    mediator->register_wrapper("wc", wc);
    mediator->register_wrapper("wk", wk);
    mediator->register_wrapper("wg", std::make_shared<wrapper::MemDbWrapper>());
    const net::LatencyModel latency{0.010, 0.00001, 0.001};
    mediator->register_repository(
        catalog::Repository{"rc", "files", "csv", "1"}, latency);
    mediator->register_repository(catalog::Repository{"rk", "kv", "kv", "2"},
                                  latency);
    mediator->execute_odl(R"(
      extent person0 of Person wrapper wc repository rc;
      extent person1 of Person wrapper wk repository rk;
    )");
  }

  static int param(int shape, int variant) {
    switch (shape) {
      case 0: return 480 + 10 * variant;   // salary < p: ~100k rows
      case 1:
      case 2: return 890 + 5 * variant;    // salary >= p: ~20k rows
      default: return 8 + 2 * variant;     // csv salary < p: ~1k joins
    }
  }

  static std::string text(int shape, int variant) {
    const std::string p = std::to_string(param(shape, variant));
    switch (shape) {
      case 0:
        return "select x.name from x in person where x.salary < " + p;
      case 1:
        return "select struct(id: x.id, salary: x.salary) from x in person "
               "where x.salary >= " + p;
      case 2:
        return "count(select x from x in person where x.salary >= " + p +
               ")";
      default:
        return "select struct(c: x.name, k: y.name) from x in person0, "
               "y in person1 where x.id = y.id and x.salary < " + p;
    }
  }

  /// Answer oracle: every (shape, variant) query with its expected answer,
  /// computed from the generated rows.
  void build_oracle() {
    for (int shape = 0; shape < kShapes; ++shape) {
      for (int variant = 0; variant < kVariants; ++variant) {
        const int p = param(shape, variant);
        Planned q;
        q.text = text(shape, variant);
        int64_t count = 0;
        for (int r = 0; r < kRows; ++r) {
          for (int side = 0; side < 2; ++side) {
            const int pay = side == 0 ? csv_salary[r] : kv_salary[r];
            const std::string name =
                (side == 0 ? "c" : "k") + std::to_string(r);
            if (shape == 0 && pay < p) {
              q.expected.add(Value::string(name));
            } else if ((shape == 1 || shape == 2) && pay >= p) {
              ++count;
              if (shape == 1) {
                q.expected.add(Value::strct({{"id", Value::integer(r)},
                                             {"salary", Value::integer(pay)}}));
              }
            }
          }
          if (shape == 3 && csv_salary[r] < p) {
            q.expected.add(Value::strct(
                {{"c", Value::string("c" + std::to_string(r))},
                 {"k", Value::string("k" + std::to_string(r))}}));
          }
        }
        if (shape == 2) {
          q.scalar = true;
          q.expected_scalar = Value::integer(count);
        }
        oracle.push_back(std::move(q));
      }
    }
  }

  const Planned& plan(int shape, int variant) const {
    return oracle[static_cast<size_t>(shape * kVariants + variant)];
  }

  Mediator::Options options;
  kvstore::KvStore kv{"kv0"};
  std::unique_ptr<Mediator> mediator;
  std::vector<int> csv_salary;
  std::vector<int> kv_salary;
  std::vector<Planned> oracle;
};

}  // namespace

Report run_bulk_getonly(const Args& args) {
  Report report;
  SpanLog log;
  double setup_s = 0;
  std::unique_ptr<BulkWorld> world = timed_setup<BulkWorld>(
      kSetups, &setup_s, [&] {
        return std::make_unique<BulkWorld>(args.seed,
                                           args.trace ? &log : nullptr);
      });
  world->build_oracle();

  SplitMix64 rng(args.seed * 0x9e3779b97f4a7c15ULL + 17);
  const Planner planner = [&](int, uint64_t k) {
    const int shape = static_cast<int>(k % kShapes);
    return world->plan(shape, static_cast<int>(rng.next_below(kVariants)));
  };

  uint64_t next_registration = 0;
  if (!args.trace) {
    untraced_in_process(*world->mediator, 1, args.seconds, setup_s, planner,
                        &next_registration, report);
  } else {
    LayerValues values;
    std::vector<std::string> shapes;
    for (int shape = 0; shape < kShapes; ++shape) {
      shapes.push_back(BulkWorld::text(shape, 0));
    }
    traced_in_process(*world->mediator, world->options, log, args.seconds,
                      planner, shapes, nullptr, &next_registration, report,
                      values);
    add_per_layer(report, values);
    log.write_json(args.out_dir + "/spans-bulk_getonly.json");
  }
  return report;
}

}  // namespace e2e
