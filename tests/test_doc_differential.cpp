// The doc-vs-relational differential: the proof obligation for the
// document source (src/sources/docstore/).
//
// The shared generator (differential.hpp) builds a random flat
// federation — 1-2 interfaces of 2-4 attributes, 1-3 member extents
// each, 0-25 rows per extent with occasional nils — and materializes the SAME
// logical data twice: as memdb tables behind the MiniSQL wrapper, run
// on the row path as the reference, and as document collections
// (structs with identical field order, k-indexed) behind the doc
// wrapper, run with the default columnar execution. Both federations
// answer the same generated OQL — filters, projections, distinct,
// joins, unions via the collective extent, aggregates — and every
// query must agree:
//
//   * same answer bag (compared as sorted OQL row texts);
//   * same completeness and, when partial, the same residual queries;
//   * when one side throws, the other must throw too.
//
// The access paths differ wildly (the doc side probes DocPath indexes
// or scans documents and refuses range pushdown; the relational side
// ships MiniSQL text), which is exactly the point: answers must not
// depend on which kind of source holds the data (§2.2's heterogeneity
// promise).
//
// The §4 resubmission differential trips the repository mid-world on
// both sides, compares the partial answers, restores it and resubmits
// each partial's to_oql(). A wall-clock world (exec.workers = 2) runs
// the same comparison so the docstore submit path (atomic store
// counters included) is exercised by the TSan concurrency sweep — the
// suite carries the `docstore-concurrency` label, matched by both
// `ctest -L docstore` and `ctest -L concurrency`.
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

/// One random federation, materialized twice over the same generated
/// rows: `rel` (memdb tables) and `doc` (document collections).
struct TwinWorld {
  explicit TwinWorld(uint32_t seed, size_t workers = 0) {
    std::mt19937 rng(seed);
    db = std::make_unique<memdb::Database>("db");
    store = std::make_unique<docstore::DocStore>("docs");

    ifaces = random_ifaces(rng, /*num_repos=*/1);

    // Generate rows once; both sources load identical data with
    // identical field order (struct order matters for Value equality).
    for (const IfaceSpec& iface : ifaces) {
      for (const MemberSpec& member : iface.members) {
        std::vector<memdb::Column> defs;
        for (const AttrSpec& attr : iface.attrs) {
          defs.push_back({attr.name, memdb_type(attr.kind)});
        }
        memdb::Table& table = db->create_table(member.name, defs);
        docstore::DocCollection& collection =
            store->create_collection(member.name);
        const size_t rows = rng() % 26;
        for (size_t r = 0; r < rows; ++r) {
          std::vector<Value> cells;
          std::vector<std::pair<std::string, Value>> fields;
          for (const AttrSpec& attr : iface.attrs) {
            Value cell = random_cell(rng, attr.kind, null_pct(attr));
            cells.push_back(cell);
            fields.emplace_back(attr.name, std::move(cell));
          }
          table.insert(std::move(cells));
          collection.insert(Value::strct(std::move(fields)));
        }
        // The doc side serves k equalities from a DocPath index; the
        // relational side scans. Answers must not care.
        collection.create_index("k");
      }
    }

    const std::string odl = odl_for(ifaces, {"r0"});

    Mediator::Options options;
    options.network_seed = seed;
    options.exec.workers = workers;

    rel = std::make_unique<Mediator>(row_path(options));
    auto mw = std::make_shared<wrapper::MemDbWrapper>();
    mw->attach_database("r0", db.get());
    rel->register_wrapper("w0", std::move(mw));
    rel->register_repository(catalog::Repository{"r0", "h", "db", "10.0.0.1"},
                             net::LatencyModel{0.010, 0.0001, 0});
    rel->execute_odl(odl);

    doc = std::make_unique<Mediator>(options);
    auto dw = std::make_shared<wrapper::DocWrapper>();
    dw->attach_store("r0", store.get());
    doc->register_wrapper("w0", std::move(dw));
    doc->register_repository(catalog::Repository{"r0", "h", "docs",
                                                 "10.0.0.2"},
                             net::LatencyModel{0.010, 0.0001, 0});
    doc->execute_odl(odl);
  }

  std::unique_ptr<memdb::Database> db;
  std::unique_ptr<docstore::DocStore> store;
  std::vector<IfaceSpec> ifaces;
  std::unique_ptr<Mediator> rel;
  std::unique_ptr<Mediator> doc;
};

std::pair<Outcome, Outcome> expect_equivalent(TwinWorld& world,
                                              const std::string& query,
                                              size_t* compared) {
  return differential::expect_equivalent(*world.rel, *world.doc, query,
                                         compared);
}

std::string random_query(std::mt19937& rng, const TwinWorld& world,
                         int shape) {
  return differential::random_query(rng, world.ifaces, shape);
}

TEST(DocDifferential, HundredsOfRandomQueriesAgree) {
  size_t compared = 0;
  for (uint32_t seed = 1; seed <= 15; ++seed) {
    TwinWorld world(seed);
    std::mt19937 rng(seed * 977);
    for (int q = 0; q < 8; ++q) {
      expect_equivalent(world, random_query(rng, world, q), &compared);
    }
  }
  EXPECT_GE(compared, 100u);
}

TEST(DocDifferential, ForcedScanAgreesWithIndexedAnswers) {
  // The same doc federation answers with indexes disabled: every k
  // equality falls back to a whole-collection scan and nothing may
  // change but the access-path counters.
  size_t compared = 0;
  for (uint32_t seed = 50; seed <= 54; ++seed) {
    TwinWorld world(seed);
    std::mt19937 rng(seed * 13);
    std::vector<std::string> queries;
    for (int q = 0; q < 6; ++q) {
      queries.push_back(random_query(rng, world, 3));  // equality shapes
    }
    std::vector<Outcome> indexed;
    for (const std::string& q : queries) {
      indexed.push_back(run(*world.doc, q));
    }
    world.store->set_use_indexes(false);
    for (size_t i = 0; i < queries.size(); ++i) {
      Outcome scanned = run(*world.doc, queries[i]);
      EXPECT_EQ(indexed[i].threw, scanned.threw) << queries[i];
      EXPECT_EQ(indexed[i].rows, scanned.rows) << queries[i];
      ++compared;
    }
  }
  EXPECT_EQ(compared, 30u);
}

TEST(DocDifferential, PartialAnswersAndResubmissionAgree) {
  size_t compared = 0;
  for (uint32_t seed = 100; seed <= 109; ++seed) {
    TwinWorld world(seed);
    std::mt19937 rng(seed * 31);
    world.rel->network().set_availability("r0",
                                          net::Availability::always_down());
    world.doc->network().set_availability("r0",
                                          net::Availability::always_down());

    std::vector<std::pair<Outcome, Outcome>> partials;
    for (int q = 0; q < 4; ++q) {
      partials.push_back(
          expect_equivalent(world, random_query(rng, world, q), &compared));
    }

    world.rel->network().set_availability("r0",
                                          net::Availability::always_up());
    world.doc->network().set_availability("r0",
                                          net::Availability::always_up());
    for (const auto& [r, d] : partials) {
      if (r.threw || r.complete) continue;
      // Each side resubmits its own partial text; outcomes must agree
      // and complete now that the source is back.
      auto [r2, d2] = expect_equivalent(world, r.to_oql, &compared);
      EXPECT_TRUE(r2.threw || r2.complete) << r.to_oql;
      Outcome d3 = run(*world.doc, d.to_oql);
      EXPECT_EQ(d2.threw, d3.threw);
      if (!d2.threw && !d3.threw) {
        EXPECT_EQ(d2.rows, d3.rows) << d.to_oql;
        EXPECT_EQ(d2.complete, d3.complete);
      }
    }
  }
  EXPECT_GE(compared, 40u);
}

TEST(DocDifferential, WallClockWorkersStayEquivalent) {
  // exec.workers = 2: source calls fan out over the thread pool, so the
  // doc wrapper's submit path and the store's atomic counters run under
  // real concurrency — the TSan entry point for src/sources/docstore/.
  size_t compared = 0;
  for (uint32_t seed = 200; seed <= 201; ++seed) {
    TwinWorld world(seed, /*workers=*/2);
    std::mt19937 rng(seed);
    for (int q = 0; q < 8; ++q) {
      auto [r, d] = expect_equivalent(world, random_query(rng, world, q % 4),
                                      &compared);
      EXPECT_FALSE(r.threw) << "wall-clock world should stay healthy";
    }
  }
  EXPECT_EQ(compared, 16u);
}

}  // namespace
}  // namespace disco
