// The row-vs-batch differential: the proof obligation for src/vec/.
//
// Two mediators share the same memdb databases (through separate wrapper
// instances); one runs the reference row-at-a-time path, the other runs
// with Options::vec enabled (tiny batches, so batch boundaries are
// crossed constantly). A seeded generator builds random federations —
// 2-3 repositories, 1-2 interfaces of 2-4 attributes, 1-3 member
// extents each, 0-25 rows per extent with occasional nils — and random
// OQL over them: filters, projections, distinct, joins, unions (via the
// collective extent), aggregates. Every query must agree between the
// two mediators:
//
//   * same answer bag (compared as sorted OQL row texts);
//   * same completeness and, when partial, the same residual queries;
//   * when one path throws (e.g. ordering a nil), the other must throw
//     too. Messages are not compared: the row path evaluates row-major
//     and the vec path operator-major, so when *several* rows would
//     throw, which error surfaces first can legitimately differ.
//
// The §4 resubmission differential trips a repository mid-world
// (always_down), compares the partial answers, then restores it and
// resubmits each partial's to_oql() — completion must agree as well.
// That path exercises Const leaves (embedded bag literals) and the
// batch-splicing union merge.
//
// Two wall-clock worlds (exec.workers = 2) run under the same
// comparison so the vec path is also exercised by the TSan concurrency
// sweep (the suite carries the `vec-concurrency` label, matched by both
// `ctest -L vec` and `ctest -L concurrency`).
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/disco.hpp"
#include "differential.hpp"

namespace disco {
namespace {

using namespace differential;

/// One random federation, instantiated twice over the SAME databases:
/// `row` (vec off) and `vectorized` (vec on, batch_rows 3).
struct TwinWorld {
  TwinWorld(uint32_t seed, bool select_pushdown, size_t workers) {
    std::mt19937 rng(seed);
    const size_t num_repos = 2 + rng() % 2;
    for (size_t r = 0; r < num_repos; ++r) {
      repos.push_back("r" + std::to_string(r));
      dbs.push_back(std::make_unique<memdb::Database>("db" + std::to_string(r)));
    }

    ifaces = random_ifaces(rng, num_repos);

    // Populate the shared databases.
    for (const IfaceSpec& iface : ifaces) {
      for (const MemberSpec& member : iface.members) {
        std::vector<memdb::Column> defs;
        for (const AttrSpec& attr : iface.attrs) {
          defs.push_back({attr.name, memdb_type(attr.kind)});
        }
        memdb::Table& table = dbs[member.repo]->create_table(member.name, defs);
        const size_t rows = rng() % 26;
        for (size_t r = 0; r < rows; ++r) {
          std::vector<Value> cells;
          for (const AttrSpec& attr : iface.attrs) {
            cells.push_back(random_cell(rng, attr.kind, null_pct(attr)));
          }
          table.insert(std::move(cells));
        }
      }
    }

    const std::string odl = odl_for(ifaces, repos);

    Mediator::Options base;
    base.network_seed = seed;
    base.optimizer.enable_select_pushdown = select_pushdown;
    base.exec.workers = workers;
    row = make_mediator(row_path(base), odl);
    base.vec.enabled = true;
    base.vec.batch_rows = 3;
    vectorized = make_mediator(base, odl);
  }

  std::unique_ptr<Mediator> make_mediator(const Mediator::Options& options,
                                          const std::string& odl) {
    auto mediator = std::make_unique<Mediator>(options);
    auto wrapper = std::make_shared<wrapper::MemDbWrapper>();
    for (size_t r = 0; r < repos.size(); ++r) {
      wrapper->attach_database(repos[r], dbs[r].get());
    }
    mediator->register_wrapper("w0", std::move(wrapper));
    for (const std::string& repo : repos) {
      mediator->register_repository(
          catalog::Repository{repo, "host-" + repo, "db", "10.0.0.1"},
          net::LatencyModel{0.010, 0.0001, 0});
    }
    mediator->execute_odl(odl);
    return mediator;
  }

  std::vector<std::string> repos;
  std::vector<std::unique_ptr<memdb::Database>> dbs;
  std::vector<IfaceSpec> ifaces;
  std::unique_ptr<Mediator> row;
  std::unique_ptr<Mediator> vectorized;
};

std::pair<Outcome, Outcome> expect_equivalent(TwinWorld& world,
                                              const std::string& query,
                                              size_t* compared) {
  return differential::expect_equivalent(*world.row, *world.vectorized,
                                         query, compared);
}

std::string random_query(std::mt19937& rng, const TwinWorld& world,
                         int shape) {
  return differential::random_query(rng, world.ifaces, shape);
}

TEST(VecDifferential, HundredsOfRandomQueriesAgree) {
  size_t compared = 0;
  size_t vec_batches_seen = 0;
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    // Half the worlds disable select pushdown so the mediator-side
    // Filter operator (the vectorized one) actually executes instead of
    // being shipped to the source.
    TwinWorld world(seed, /*select_pushdown=*/seed % 2 == 0, /*workers=*/0);
    std::mt19937 rng(seed * 977);
    for (int q = 0; q < 9; ++q) {
      auto [r, v] =
          expect_equivalent(world, random_query(rng, world, q), &compared);
      vec_batches_seen += v.vec_batches;
    }
  }
  EXPECT_GE(compared, 200u);
  // The vec path must actually have run: batches were produced and
  // consumed somewhere across the sweep (not everything fell back).
  EXPECT_GT(vec_batches_seen, 0u);
}

TEST(VecDifferential, PartialAnswersAndResubmissionAgree) {
  size_t compared = 0;
  for (uint32_t seed = 100; seed <= 109; ++seed) {
    TwinWorld world(seed, /*select_pushdown=*/seed % 2 == 0, /*workers=*/0);
    std::mt19937 rng(seed * 31);
    // Trip one repository on BOTH mediators: the §4 machinery turns the
    // affected submits into residual queries.
    const std::string& down = world.repos[rng() % world.repos.size()];
    world.row->network().set_availability(down,
                                          net::Availability::always_down());
    world.vectorized->network().set_availability(
        down, net::Availability::always_down());

    std::vector<std::pair<Outcome, Outcome>> partials;
    for (int q = 0; q < 4; ++q) {
      partials.push_back(
          expect_equivalent(world, random_query(rng, world, q), &compared));
    }

    // Recovery: resubmit each partial answer verbatim. The embedded bag
    // literal exercises the Const leaf -> batch conversion and the
    // union's batch splice; completion must agree with the row path.
    world.row->network().set_availability(down,
                                          net::Availability::always_up());
    world.vectorized->network().set_availability(
        down, net::Availability::always_up());
    for (const auto& [r, v] : partials) {
      if (r.threw || r.complete) continue;
      // Both partials carry the same residuals and (bag-equal) data, but
      // the embedded bag literal may list rows in a different order
      // (bags are unordered; vec distinct emits hash order), so each
      // mediator resubmits its own text and the *outcomes* must agree.
      auto [r2, v2] = expect_equivalent(world, r.to_oql, &compared);
      EXPECT_TRUE(r2.threw || r2.complete) << r.to_oql;
      Outcome v3 = run(*world.vectorized, v.to_oql);
      EXPECT_EQ(v2.threw, v3.threw);
      if (!v2.threw && !v3.threw) {
        EXPECT_EQ(v2.rows, v3.rows) << v.to_oql;
        EXPECT_EQ(v2.complete, v3.complete);
      }
    }
  }
  EXPECT_GE(compared, 40u);
}

TEST(VecDifferential, WallClockWorkersStayEquivalent) {
  // exec.workers = 2 leaves virtual time for wall-clock fan-out; answer
  // bags must still match (order may differ — the comparison sorts).
  // This is also the TSan entry point for the vec path.
  size_t compared = 0;
  for (uint32_t seed = 200; seed <= 201; ++seed) {
    TwinWorld world(seed, /*select_pushdown=*/false, /*workers=*/2);
    std::mt19937 rng(seed);
    for (int q = 0; q < 8; ++q) {
      // Shapes 0-3 are total (equality filters only) — ordering shapes
      // may legitimately throw on a nil key, which would make the
      // stay-healthy assertion below meaningless.
      auto [r, v] = expect_equivalent(world, random_query(rng, world, q % 4),
                                      &compared);
      EXPECT_FALSE(r.threw) << "wall-clock world should stay healthy";
    }
  }
  EXPECT_EQ(compared, 16u);
}

TEST(VecDifferential, ExplainReportsTheVecPath) {
  TwinWorld world(7, /*select_pushdown=*/false, /*workers=*/0);
  const std::string query =
      "select x from x in " + world.ifaces[0].collective;
  Mediator::ExplainReport off = world.row->explain_report(query);
  Mediator::ExplainReport on = world.vectorized->explain_report(query);
  EXPECT_FALSE(off.vec);
  EXPECT_TRUE(off.vec_ops.empty());
  EXPECT_TRUE(on.vec);
  EXPECT_NE(on.to_string().find("vec: on"), std::string::npos);

  // Vectorized runs report batch traffic in the run stats; the row
  // mediator never does.
  Answer row_answer = world.row->query(query);
  Answer vec_answer = world.vectorized->query(query);
  EXPECT_EQ(row_answer.stats().run.vec_batches, 0u);
  EXPECT_EQ(row_answer.stats().run.vec_rows, 0u);
  if (vec_answer.data().size() > 0) {
    EXPECT_GT(vec_answer.stats().run.vec_batches, 0u);
  }
}

}  // namespace
}  // namespace disco
