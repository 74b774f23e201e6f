// End-to-end mediator tests: the paper's examples, run verbatim through
// ODL + OQL against memdb sources over the simulated network.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

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


// Salary 200 sits in person0 and in person1: each branch of a select
// distinct is distinct on its own, their union is not. The complete
// answer, the partial answer resubmitted as text, and a session that
// re-runs the residual and merges it all hold the evaluator's set of
// items, once each, with vec on and off.
TEST(MediatorTest, SelectDistinctCollapsesTheWholeAnswer) {
  // person1 repeats a salary of its own and one of person0's. Every
  // query is planned, and each answer -- complete, partial resubmitted
  // as text, session-merged -- is the evaluator's set, kind included.
  // The residual of distinct(<collection>) is the bare collection, so
  // its lone-residual partial answer must still print inside distinct.
  Mediator::Options row_path;
  row_path.vec.enabled = false;
  for (const char* query : {"select distinct x.salary from x in person",
                            "distinct(select x.salary from x in person1)",
                            "distinct(select x.salary from x in person)",
                            "distinct(person)"}) {
    for (const Mediator::Options& options : {Mediator::Options{}, row_path}) {
      SCOPED_TRACE(std::string(query) +
                   (options.vec.enabled ? " / vec" : " / row path"));
      PaperWorld world(options);
      world.db1.table("person1").insert(
          {Value::integer(4), Value::string("Bob"), Value::integer(200)});
      world.db1.table("person1").insert(
          {Value::integer(5), Value::string("Ann"), Value::integer(50)});
      const std::string expected = evaluated(world, query);
      if (std::string(query) != "distinct(person)") {
        EXPECT_EQ(expected, "set(50, 200)");
      }

      Answer complete = world.mediator.query(query);
      ASSERT_TRUE(complete.complete());
      EXPECT_FALSE(complete.stats().local_mode);
      EXPECT_EQ(complete.data().to_oql(), expected);

      world.mediator.network().set_availability(
          "r1", net::Availability::always_down());
      Answer partial = world.mediator.query(query);
      ASSERT_FALSE(partial.complete());
      EXPECT_TRUE(partial.distinct());
      EXPECT_EQ(partial.to_oql().rfind("distinct(", 0), 0u)
          << partial.to_oql();
      world.mediator.network().set_availability(
          "r1", net::Availability::always_up());
      Answer resubmitted = world.mediator.query(partial.to_oql());
      ASSERT_TRUE(resubmitted.complete()) << partial.to_oql();
      EXPECT_EQ(resubmitted.data().to_oql(), expected) << partial.to_oql();

      // The session re-runs only the residual and merges its items with
      // the first run's.
      world.mediator.network().set_availability(
          "r1", net::Availability::always_down());
      session::SessionOptions session_options;
      session_options.retry_interval_s = 0.002;
      session::ResubmissionManager manager(
          [&](const std::string& text, double) {
            return world.mediator.query(text);
          },
          session_options);
      session::QueryHandle handle = manager.submit(query);
      ASSERT_TRUE([&] {
        for (int i = 0; i < 2000; ++i) {
          if (handle.resubmissions() >= 1) return true;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false;
      }());
      EXPECT_EQ(handle.snapshot().to_oql().rfind("distinct(", 0), 0u);
      world.mediator.network().set_availability(
          "r1", net::Availability::always_up());
      manager.notify_recovery();
      Answer merged = handle.wait();
      ASSERT_TRUE(merged.complete());
      EXPECT_EQ(merged.data().to_oql(), expected);
    }
  }
}

/// A csv and a kv source of `rows` Person rows each (salary = id % 50),
/// both get-only for a salary range: every row ships.
struct BulkWorld {
  explicit BulkWorld(Mediator::Options options = {}, int rows = 60,
                     bool mixed_salaries = false)
      : mediator(options) {
    mediator.execute_odl(R"(
      interface Person (extent person) {
        attribute Long id;
        attribute String name;
        attribute Double salary; };
    )");
    std::string text = "id,name,salary\n";
    kvstore::KvCollection& people = kv.create_collection("person1", "id");
    for (int r = 0; r < rows; ++r) {
      const int pay = r % 50;
      text += std::to_string(r) + ",c" + std::to_string(r) + "," +
              std::to_string(pay) + "\n";
      // Mixed: odd rows carry a Double salary, a type fight in a batch.
      people.put(Value::strct(
          {{"id", Value::integer(r)},
           {"name", Value::string("k" + std::to_string(r))},
           {"salary", mixed_salaries && r % 2 == 1 ? Value::real(pay + 0.5)
                                                   : Value::integer(pay)}}));
    }
    auto csv_wrapper = std::make_shared<wrapper::CsvWrapper>();
    csv_wrapper->attach_table("rc", csv::parse_csv("person0", text));
    auto kv_wrapper = std::make_shared<wrapper::KvWrapper>();
    kv_wrapper->attach_store("rk", &kv);
    mediator.register_wrapper("wc", std::move(csv_wrapper));
    mediator.register_wrapper("wk", std::move(kv_wrapper));
    mediator.register_repository(catalog::Repository{"rc", "", "", ""});
    mediator.register_repository(catalog::Repository{"rk", "", "", ""});
    mediator.execute_odl(R"(
      extent person0 of Person wrapper wc repository rc;
      extent person1 of Person wrapper wk repository rk;
    )");
  }

  kvstore::KvStore kv{"kv"};
  Mediator mediator;
};

// Get-only sources ship every row, in columns: the filter, projection,
// hash join and count run on the replies as they arrive, and the only
// rows ever built are the answer's. The row path (vec off) never sees a
// batch, leaf replies included.
TEST(MediatorTest, GetOnlyRepliesBuildOnlyTheAnswerRows) {
  BulkWorld world;
  const char* queries[] = {
      "select x.name from x in person where x.salary < 20",
      "select struct(i: x.id, s: x.salary) from x in person "
      "where x.salary >= 40",
      "select struct(c: x.name, k: y.name) from x in person0, "
      "y in person1 where x.id = y.id and x.salary < 10",
  };
  for (const char* query : queries) {
    Answer a = world.mediator.query(query);
    ASSERT_TRUE(a.complete()) << query;
    const physical::RunStats& run = a.stats().run;
    EXPECT_EQ(run.rows_fetched, 120u) << query;
    EXPECT_EQ(run.vec_leaf_batches, 2u) << query;
    EXPECT_EQ(run.vec_converted_batches, 0u) << query;
    EXPECT_EQ(run.vec_fallbacks, 0u) << query;
    EXPECT_GT(a.data().size(), 0u) << query;
    EXPECT_LT(a.data().size(), 120u) << query;
    EXPECT_EQ(run.rows_rebuilt, a.data().size()) << query;
  }
  Answer count =
      world.mediator.query("count(select x from x in person where x.id < 7)");
  EXPECT_EQ(count.data(), Value::integer(14));
  EXPECT_EQ(count.stats().run.rows_rebuilt, 0u);

  const Mediator::ExplainReport report =
      world.mediator.explain_report(queries[0]);
  for (const char* leaf : {"exec rc -> vec (columnar reply)",
                           "exec rk -> vec (columnar reply)"}) {
    EXPECT_NE(std::find(report.vec_ops.begin(), report.vec_ops.end(), leaf),
              report.vec_ops.end())
        << leaf;
  }

  Mediator::Options row_path;
  row_path.vec.enabled = false;
  BulkWorld reference(row_path);
  Answer rows = reference.mediator.query(queries[0]);
  EXPECT_EQ(rows.data(), world.mediator.query(queries[0]).data());
  EXPECT_EQ(rows.stats().run.vec_batches, 0u);
  EXPECT_EQ(rows.stats().run.vec_leaf_batches, 0u);
}

// A kv reply whose salary column mixes Int and Double inside a batch
// comes back as rows (a fallback); with one-row batches the filter can
// still convert it, and RunStats tells those converted batches from the
// csv leaf's own.
TEST(MediatorTest, RunStatsTellLeafBatchesFromConvertedInput) {
  Mediator::Options options;
  options.vec.batch_rows = 1;
  BulkWorld world(options, 10, /*mixed_salaries=*/true);
  Answer a =
      world.mediator.query("select x.id from x in person where x.salary < 3");
  ASSERT_TRUE(a.complete());
  const physical::RunStats& run = a.stats().run;
  EXPECT_EQ(run.vec_leaf_batches, 1u);  // csv: one reply batch
  EXPECT_EQ(run.vec_converted_batches, 10u);  // kv: ten 1-row batches
  EXPECT_GE(run.vec_fallbacks, 1u);
  EXPECT_EQ(a.data().size(), 6u);  // csv 0, 1, 2; kv 0, 1 (1.5), 2
}

}  // namespace
}  // namespace disco
