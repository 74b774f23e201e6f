// End-to-end mediator tests: the paper's examples, run verbatim through
// ODL + OQL against memdb sources over the simulated network.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fixtures.hpp"
#include "oql/eval.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"

namespace disco {
namespace {

using disco::testing::PaperWorld;

TEST(MediatorTest, PaperIntroQuery) {
  // §1.2: "The answer to this query is a bag of strings
  // Bag("Mary","Sam")."
  PaperWorld world;
  Answer a = world.mediator.query(
      "select x.name from x in person where x.salary > 10");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.data(),
            Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST(MediatorTest, SingleExtentQuery) {
  // §2.1: "returns the answer Bag("Mary")".
  PaperWorld world;
  Answer a = world.mediator.query(
      "select x.name from x in person0 where x.salary > 10");
  EXPECT_EQ(a.data(), Value::bag({Value::string("Mary")}));
}

TEST(MediatorTest, ExplicitUnionOfExtents) {
  // §2.1: "select x.name from x in union(person0,person1) ...
  // will return the answer Bag("Mary", "Sam")".
  PaperWorld world;
  Answer a = world.mediator.query(
      "select x.name from x in union(person0, person1) "
      "where x.salary > 10");
  EXPECT_EQ(a.data(),
            Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST(MediatorTest, AddingASourceLeavesTheQueryUnchanged) {
  // §1.2: "the addition of a new data source ... simply requires the
  // addition of a new extent ... The query itself does not change."
  PaperWorld world;
  const std::string query = "select x.name from x in person";
  EXPECT_EQ(world.mediator.query(query).data().size(), 2u);

  memdb::Database db2("db2");
  auto& p2 = db2.create_table("person2",
                              {{"id", memdb::ColumnType::Int},
                               {"name", memdb::ColumnType::Text},
                               {"salary", memdb::ColumnType::Int}});
  p2.insert({Value::integer(3), Value::string("Lou"), Value::integer(75)});
  world.wrapper0->attach_database("r2", &db2);
  world.mediator.register_repository(
      catalog::Repository{"r2", "nile", "db", "123.45.6.9"});
  world.mediator.execute_odl(
      "extent person2 of Person wrapper w0 repository r2;");

  Answer a = world.mediator.query(query);  // same query text
  EXPECT_EQ(a.data().size(), 3u);
}

TEST(MediatorTest, OdlDrivenSetupMatchesProgrammatic) {
  // Full §2.1 flow through ODL only, including r0 := Repository(...).
  memdb::Database db("db");
  auto& t = db.create_table("person0",
                            {{"name", memdb::ColumnType::Text},
                             {"salary", memdb::ColumnType::Int}});
  t.insert({Value::string("Mary"), Value::integer(200)});

  Mediator m;
  m.register_wrapper_factory("WrapperMiniSql", [&db] {
    auto w = std::make_shared<wrapper::MemDbWrapper>();
    w->attach_database("r0", &db);
    return w;
  });
  m.execute_odl(R"(
    interface Person (extent person) {
      attribute String name;
      attribute Short salary; };
    r0 := Repository(host="rodin", name="db", address="123.45.6.7");
    w0 := WrapperMiniSql();
    extent person0 of Person wrapper w0 repository r0;
  )");
  EXPECT_EQ(m.catalog().repository("r0").host, "rodin");
  Answer a = m.query("select x.name from x in person");
  EXPECT_EQ(a.data(), Value::bag({Value::string("Mary")}));
}

TEST(MediatorTest, TypeMapExample) {
  // §2.2.2: PersonPrime with map ((person0=personprime0),(name=n),
  // (salary=s)).
  PaperWorld world;
  world.mediator.execute_odl(R"(
    interface PersonPrime {
      attribute String n;
      attribute Short s; };
    extent personprime0 of PersonPrime wrapper w0 repository r0
      map ((person0=personprime0),(name=n),(salary=s));
  )");
  Answer a = world.mediator.query(
      "select x.n from x in personprime0 where x.s > 100");
  EXPECT_EQ(a.data(), Value::bag({Value::string("Mary")}));
}

TEST(MediatorTest, SubtypingAndClosure) {
  // §2.2.1: person still has two extents; person* sees the student
  // extents too.
  PaperWorld world;
  auto& s0 = world.db1.create_table("student0",
                                    {{"id", memdb::ColumnType::Int},
                                     {"name", memdb::ColumnType::Text},
                                     {"salary", memdb::ColumnType::Int}});
  s0.insert({Value::integer(9), Value::string("Stu"), Value::integer(15)});
  world.mediator.execute_odl(R"(
    interface Student : Person { };
    extent student0 of Student wrapper w0 repository r1;
  )");
  EXPECT_EQ(world.mediator.query("select x.name from x in person")
                .data()
                .size(),
            2u);
  Answer closure =
      world.mediator.query("select x.name from x in person*");
  EXPECT_EQ(closure.data().size(), 3u);
}

TEST(MediatorTest, DoubleViewReconciliation) {
  // §2.2.3 "double": sum of salaries across two sources by id join.
  PaperWorld world;
  // Give both sources a person with the same id.
  world.db0.table("person0").insert(
      {Value::integer(7), Value::string("Ann"), Value::integer(100)});
  world.db1.table("person1").insert(
      {Value::integer(7), Value::string("Ann"), Value::integer(30)});
  world.mediator.execute_odl(R"(
    define double as
      select struct(name: x.name, salary: x.salary + y.salary)
      from x in person0, y in person1
      where x.id = y.id;
  )");
  Answer a = world.mediator.query("double");
  ASSERT_EQ(a.data().size(), 1u);
  EXPECT_EQ(a.data().items()[0].field("name"), Value::string("Ann"));
  EXPECT_EQ(a.data().items()[0].field("salary"), Value::integer(130));
}

TEST(MediatorTest, MultipleViewWithAggregateOverClosure) {
  // §2.2.3 "multiple": sum over all of person* via a correlated
  // subquery on the implicit extent.
  PaperWorld world;
  world.db0.table("person0").insert(
      {Value::integer(2), Value::string("Sam"), Value::integer(25)});
  world.mediator.execute_odl(R"(
    define multiple as
      select struct(name: x.name,
                    salary: sum(select z.salary from z in person
                                where x.id = z.id))
      from x in person*;
  )");
  Answer a = world.mediator.query("multiple");
  ASSERT_TRUE(a.complete());
  // Sam appears in both sources (ids 2); his total is 50 + 25 = 75.
  bool found = false;
  for (const Value& row : a.data().items()) {
    if (row.field("name") == Value::string("Sam")) {
      EXPECT_EQ(row.field("salary"), Value::integer(75));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MediatorTest, PersonNewViewOverDissimilarStructures) {
  // §2.3: PersonTwo with regular+consult reconciled through a two-armed
  // bag view.
  PaperWorld world;
  auto& p2 = world.db0.create_table("persontwo0",
                                    {{"name", memdb::ColumnType::Text},
                                     {"regular", memdb::ColumnType::Int},
                                     {"consult", memdb::ColumnType::Int}});
  p2.insert({Value::string("Kim"), Value::integer(40),
             Value::integer(15)});
  world.mediator.execute_odl(R"(
    interface PersonTwo {
      attribute String name;
      attribute Short regular;
      attribute Short consult; };
    extent persontwo0 of PersonTwo wrapper w0 repository r0;
    define personnew as
      bag((select struct(name: x.name, salary: x.salary) from x in person),
          (select struct(name: x.name, salary: x.regular + x.consult)
           from x in persontwo0));
  )");
  Answer a = world.mediator.query("flatten(personnew)");
  ASSERT_TRUE(a.complete());
  ASSERT_EQ(a.data().size(), 3u);
  bool kim = false;
  for (const Value& row : a.data().items()) {
    if (row.field("name") == Value::string("Kim")) {
      EXPECT_EQ(row.field("salary"), Value::integer(55));
      kim = true;
    }
  }
  EXPECT_TRUE(kim);
}

TEST(MediatorTest, MetaExtentIsQueryable) {
  // §2.1: extents can be inspected by querying the metaextent collection.
  PaperWorld world;
  Answer a = world.mediator.query(
      "select x.name from x in metaextent "
      "where x.interface = \"Person\"");
  EXPECT_EQ(a.data(), Value::bag({Value::string("person0"),
                                  Value::string("person1")}));
}

TEST(MediatorTest, EmptyTypeYieldsEmptyBag) {
  PaperWorld world;
  world.mediator.execute_odl(
      "interface Ghost (extent ghosts) { attribute String name; };");
  Answer a = world.mediator.query("select x.name from x in ghosts");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.data(), Value::bag({}));
}

TEST(MediatorTest, CrossSourceJoinExecutes) {
  PaperWorld world;
  Answer a = world.mediator.query(
      "select struct(a: x.name, b: y.name) "
      "from x in person0, y in person1 where x.salary > y.salary");
  ASSERT_EQ(a.data().size(), 1u);
  EXPECT_EQ(a.data().items()[0].field("a"), Value::string("Mary"));
}

TEST(MediatorTest, LocalModeAggregates) {
  PaperWorld world;
  EXPECT_EQ(world.mediator.query("sum(select x.salary from x in person)")
                .data(),
            Value::integer(250));
  EXPECT_EQ(world.mediator.query("count(person)").data(),
            Value::integer(2));
  EXPECT_EQ(world.mediator
                .query("max(select x.salary from x in person)")
                .data(),
            Value::integer(200));
}

TEST(MediatorTest, QueryStatsPopulated) {
  PaperWorld world;
  Answer a = world.mediator.query("select x.name from x in person");
  EXPECT_EQ(a.stats().run.exec_calls, 2u);
  EXPECT_EQ(a.stats().run.rows_fetched, 2u);
  EXPECT_GT(a.stats().run.elapsed_s, 0.0);
  EXPECT_GE(a.stats().plans_considered, 2u);
  EXPECT_FALSE(a.stats().local_mode);
}

TEST(MediatorTest, CostHistoryLearnsAcrossQueries) {
  PaperWorld world;
  EXPECT_EQ(world.mediator.cost_history().exact_entries(), 0u);
  world.mediator.query("select x.name from x in person");
  EXPECT_GE(world.mediator.cost_history().exact_entries(), 2u);
  auto remote = algebra::project(algebra::get("person0", "x"),
                                 oql::parse("x.name"), false);
  auto est = world.mediator.cost_history().estimate("r0", remote);
  EXPECT_EQ(est.basis, optimizer::CostHistory::Basis::Exact);
  EXPECT_GT(est.time_s, 0.0);
}

TEST(MediatorTest, ExplainOutput) {
  PaperWorld world;
  std::string text =
      world.mediator.explain("select x.name from x in person");
  EXPECT_NE(text.find("plan: mkunion("), std::string::npos) << text;
  EXPECT_NE(text.find("plans considered"), std::string::npos);
  std::string aggregate = world.mediator.explain("count(person)");
  EXPECT_NE(aggregate.find("plan: count(mkunion("), std::string::npos)
      << aggregate;
  std::string local = world.mediator.explain(
      "flatten(select bag(x.name) from x in person)");
  EXPECT_NE(local.find("mode: local evaluation"), std::string::npos);
  EXPECT_NE(local.find("aux person:"), std::string::npos);
}

// The outcome of `query` under the row evaluator over the materialized
// extents: the answer's OQL text, or the error text.
std::string evaluated(PaperWorld& world, const std::string& query,
                      const std::vector<std::string>& extents = {
                          "person", "person0", "person1"}) {
  oql::MapResolver resolver;
  for (const std::string& extent : extents) {
    Answer rows = world.mediator.query(std::string("select x from x in ") +
                                       extent);
    resolver.bind(extent, rows.data());
  }
  resolver.bind("ghosts", Value::bag({}));
  try {
    return oql::Evaluator(&resolver).eval(oql::parse(query)).to_oql();
  } catch (const ExecutionError& e) {
    return e.what();
  }
}

std::string outcome_of(Mediator& mediator, const std::string& query) {
  try {
    return mediator.query(query).data().to_oql();
  } catch (const ExecutionError& e) {
    return e.what();
  }
}

// count/sum/avg/min/max plan their collection like any select and reduce
// the plan's answer, columnar or on rows, to what the row evaluator gives
// over the materialized extents: the same value or the same error text.
// Salary 200 sits in both person extents, so a distinct select's
// branches are each distinct but their union is not. The readings are
// reals whose naive sum depends on the order they are added in.
TEST(MediatorTest, AggregatesRunOnThePlan) {
  const char* collections[] = {
      // pushable where
      "select x.salary from x in person where x.salary > 10",
      // an implicit extent and one extent by name
      "person",
      "person0",
      "select distinct x.salary from x in person",
      // a type with no extents
      "select x.salary from x in ghosts",
      // a string column: sum and avg raise, min and max order strings
      "select x.name from x in person",
      // a real column, as a bag and as a set
      "select x.d from x in reading",
      "select distinct x.d from x in reading",
  };
  Mediator::Options row_path;
  row_path.vec.enabled = false;
  for (const Mediator::Options& options : {Mediator::Options{}, row_path}) {
    PaperWorld world(options);
    world.db0.table("person0").insert(
        {Value::integer(3), Value::string("Ann"), Value::integer(200)});
    world.db1.table("person1").insert(
        {Value::integer(4), Value::string("Bob"), Value::integer(200)});
    const std::vector<std::vector<double>> readings = {{0.3, 0.2, 0.1},
                                                       {0.1, 0.3}};
    for (size_t i = 0; i < readings.size(); ++i) {
      memdb::Database& db = i == 0 ? world.db0 : world.db1;
      auto& table = db.create_table("reading" + std::to_string(i),
                                    {{"id", memdb::ColumnType::Int},
                                     {"d", memdb::ColumnType::Real}});
      for (double d : readings[i]) {
        table.insert({Value::integer(static_cast<int64_t>(table.row_count())),
                      Value::real(d)});
      }
    }
    world.mediator.execute_odl(R"(
      interface Ghost (extent ghosts) { attribute Long salary; };
      interface Reading (extent reading) {
        attribute Long id;
        attribute Double d; };
      extent reading0 of Reading wrapper w0 repository r0;
      extent reading1 of Reading wrapper w0 repository r1;
    )");
    for (const char* collection : collections) {
      for (const char* fn : {"count", "sum", "avg", "min", "max"}) {
        const std::string query = std::string(fn) + "(" + collection + ")";
        EXPECT_EQ(outcome_of(world.mediator, query),
                  evaluated(world, query,
                            {"person", "person0", "person1", "reading"}))
            << query << " (vec " << options.vec.enabled << ")";
        Mediator::ExplainReport report =
            world.mediator.explain_report(query);
        EXPECT_FALSE(report.local_mode) << query;
        EXPECT_EQ(report.plan.rfind(std::string(fn) + "(", 0), 0u)
            << query << ": " << report.plan;
      }
    }
  }
}

TEST(MediatorTest, PlannedAggregateShipsOnlyMatchingRows) {
  PaperWorld world;
  for (int id = 2; id <= 10; ++id) {
    world.db0.table("person0").insert({Value::integer(id),
                                       Value::string("p" + std::to_string(id)),
                                       Value::integer(id)});
  }
  Answer a =
      world.mediator.query("count(select x from x in person0 where x.id = 7)");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.data(), Value::integer(1));
  EXPECT_EQ(a.stats().run.rows_fetched, 1u);
  EXPECT_FALSE(a.stats().local_mode);
}

// A down source leaves an aggregate without an answer: the data part is
// empty and the whole query is the one residual, as in local mode.
// Resubmitting that residual once the source is back completes it.
TEST(MediatorTest, PartialAggregateIsTheWholeQuery) {
  Mediator::Options row_path;
  row_path.vec.enabled = false;
  for (const Mediator::Options& options : {Mediator::Options{}, row_path}) {
    PaperWorld world(options);
    for (const char* fn : {"count", "sum", "avg", "min", "max"}) {
      const std::string query =
          std::string(fn) +
          "(select x.salary from x in person where x.salary > 10)";
      world.mediator.network().set_availability(
          "r1", net::Availability::always_down());
      Answer partial = world.mediator.query(query);
      world.mediator.network().set_availability(
          "r1", net::Availability::always_up());
      ASSERT_FALSE(partial.complete()) << query;
      EXPECT_EQ(partial.data(), Value::bag({})) << query;
      ASSERT_EQ(partial.residual_queries().size(), 1u) << query;
      EXPECT_EQ(partial.residual_queries()[0],
                oql::to_oql(oql::parse(query)));
      Answer resubmitted = world.mediator.query(partial.to_oql());
      ASSERT_TRUE(resubmitted.complete()) << query;
      EXPECT_EQ(resubmitted.data().to_oql(), evaluated(world, query))
          << query;
    }
  }
}

TEST(MediatorTest, ErrorsSurfaceCleanly) {
  PaperWorld world;
  EXPECT_THROW(world.mediator.query("select x from x in nowhere"),
               CatalogError);
  EXPECT_THROW(world.mediator.query("select x from"), ParseError);
  EXPECT_THROW(world.mediator.execute_odl("extent e of Person wrapper "
                                          "nosuch repository r0;"),
               CatalogError);
  EXPECT_THROW(world.mediator.execute_odl("x := NoSuchCtor();"),
               CatalogError);
}

// Where a predicate runs must not change the outcome: pushed into
// MiniSQL, filtered mediator-side, or filtered by the vec kernels, each
// row's query gives the same answer or raises the same error text. The
// join row is pushed whole into MiniSQL when pushdown is on; its only
// nil salary sits in pairs whose ids differ, which the mediator's hash
// join never checks against the ordering conjunct.
TEST(MediatorTest, PushdownOnOffAndVecAgreeOnOutcomes) {
  struct Row {
    const char* query;
    bool nil_salary;  ///< add a person0 row whose salary is nil
    const char* outcome;
  };
  const Row rows[] = {
      {"select x.name from x in person where x.salary > 60", false,
       "bag(\"Mary\")"},
      {"select x.name from x in person where x.salary = nil", true,
       "bag(\"Nil\")"},
      {"select x.name from x in person where x.salary < \"abc\"", false,
       "execution error: cannot order int against string"},
      {"select x.name from x in person where x.salary < 100", true,
       "execution error: cannot order null against int"},
      {"select x.name from x in person0, y in staff0 "
       "where x.salary < y.salary and x.id = y.id",
       true, "bag(\"Mary\")"},
  };
  Mediator::Options pushdown_off;
  pushdown_off.optimizer.enable_select_pushdown = false;
  pushdown_off.optimizer.enable_join_merge = false;
  pushdown_off.vec.enabled = false;
  Mediator::Options vec = pushdown_off;
  vec.vec.enabled = true;
  for (const Row& row : rows) {
    for (const Mediator::Options& options :
         {Mediator::Options{}, pushdown_off, vec}) {
      PaperWorld world(options);
      auto& staff = world.db0.create_table(
          "staff0", {{"id", memdb::ColumnType::Int},
                     {"name", memdb::ColumnType::Text},
                     {"salary", memdb::ColumnType::Int}});
      staff.insert({Value::integer(1), Value::string("Ann"),
                    Value::integer(300)});
      staff.insert({Value::integer(2), Value::string("Bob"),
                    Value::integer(100)});
      world.mediator.execute_odl(R"(
        interface Staff (extent staff) {
          attribute Long id;
          attribute String name;
          attribute Short salary; };
        extent staff0 of Staff wrapper w0 repository r0;
      )");
      if (row.nil_salary) {
        world.db0.table("person0").insert(
            {Value::integer(3), Value::string("Nil"), Value::null()});
      }
      std::string outcome;
      try {
        outcome = world.mediator.query(row.query).data().to_oql();
      } catch (const ExecutionError& e) {
        outcome = e.what();
      }
      EXPECT_EQ(outcome, row.outcome)
          << row.query << " (pushdown "
          << options.optimizer.enable_select_pushdown << ", vec "
          << options.vec.enabled << ")";
    }
  }
}

// A never-repeated text is a new exact cost key, but when its cost
// matches the close estimate it was planned with, no estimate the
// optimizer reads moved: a hot text's cached plan stays. A cold text
// whose cost is materially different does move one and evicts it.
TEST(MediatorTest, ColdQueryMatchingItsCloseEstimateKeepsCachedPlans) {
  Mediator::Options options;
  options.enable_plan_cache = true;
  PaperWorld world(options);
  world.db0.table("person0").insert(
      {Value::integer(2), Value::string("Ann"), Value::integer(90)});
  const std::string hot = "select x.name from x in person0 where x.id = 1";
  world.mediator.query(hot);
  world.mediator.query(hot);  // replans once: the first run taught costs
  const Mediator::PlanCacheStats warm = world.mediator.plan_cache_stats();
  world.mediator.query(hot);
  EXPECT_EQ(world.mediator.plan_cache_stats().hits, warm.hits + 1);

  // Same shape, same row count, same latency as the close estimate.
  world.mediator.query("select x.name from x in person0 where x.id = 2");
  const Mediator::PlanCacheStats matched = world.mediator.plan_cache_stats();
  world.mediator.query(hot);
  EXPECT_EQ(world.mediator.plan_cache_stats().hits, matched.hits + 1);
  EXPECT_EQ(world.mediator.plan_cache_stats().invalidations,
            matched.invalidations);

  // Same shape, no rows: the estimate moved, the cached plan goes.
  world.mediator.query("select x.name from x in person0 where x.id = 99");
  const Mediator::PlanCacheStats moved = world.mediator.plan_cache_stats();
  world.mediator.query(hot);
  EXPECT_EQ(world.mediator.plan_cache_stats().hits, moved.hits);
  EXPECT_EQ(world.mediator.plan_cache_stats().invalidations,
            moved.invalidations + 1);
}

TEST(MediatorTest, DuplicateWrapperRejected) {
  PaperWorld world;
  EXPECT_THROW(world.mediator.register_wrapper(
                   "w0", std::make_shared<wrapper::MemDbWrapper>()),
               CatalogError);
}

TEST(MediatorTest, VirtualTimeAccumulatesAcrossQueries) {
  PaperWorld world;
  world.mediator.query("select x.name from x in person");
  double after_first = world.mediator.clock().now();
  EXPECT_GT(after_first, 0.0);
  world.mediator.query("select x.name from x in person");
  EXPECT_GT(world.mediator.clock().now(), after_first);
}

}  // namespace
}  // namespace disco
