// Composed mediators (Figure 1): a downstream mediator that reaches its
// data through an upstream mediator via fedcat::MediatorSource.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fedcat/mediator_source.hpp"
#include "fixtures.hpp"

namespace disco {
namespace {

using disco::testing::PaperWorld;

/// Downstream mediator whose only source is the PaperWorld mediator.
struct Federation {
  Federation() {
    auto source = fedcat::MediatorSource::in_process(&upstream.mediator);
    mediator_source = source.get();
    downstream.register_wrapper("wm", std::move(source));
    downstream.register_repository(
        catalog::Repository{"mr", "mediator-host", "disco", "10.0.0.1"},
        net::LatencyModel{0.005, 0.0001, 0});
    downstream.execute_odl(R"(
      interface Employee (extent employees) {
        attribute String ename;
        attribute Short pay; };
      extent staff of Employee wrapper wm repository mr
        map ((person=staff),(name=ename),(salary=pay));
    )");
  }
  PaperWorld upstream;
  Mediator downstream;
  fedcat::MediatorSource* mediator_source = nullptr;
};

TEST(FederationTest, QueriesFlowThroughBothMediators) {
  Federation fed;
  Answer a = fed.downstream.query(
      "select x.ename from x in staff where x.pay > 10");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.data(),
            Value::bag({Value::string("Mary"), Value::string("Sam")}));
}

TEST(FederationTest, PushedExpressionIsReconstructedOql) {
  Federation fed;
  fed.downstream.query("select x.ename from x in staff where x.pay > 10");
  // The wrapper shipped renamed OQL text: ename->name, pay->salary,
  // staff->person (the upstream implicit extent).
  EXPECT_EQ(fed.mediator_source->last_oql(),
            "select x.name from x in person where x.salary > 10");
}

TEST(FederationTest, ExplainTellsRowRepliesFromColumnarOnes) {
  // A mediator source renames env rows in columns, but a pushed
  // projection's values pass through as the remote's rows: explain says
  // which, and the run agrees.
  Federation fed;
  const std::string pushed = "select x.ename from x in staff";
  const std::string env = "select x from x in staff";
  const auto lists = [&](const std::string& query, const std::string& op) {
    const std::vector<std::string> ops =
        fed.downstream.explain_report(query).vec_ops;
    return std::find(ops.begin(), ops.end(), op) != ops.end();
  };
  EXPECT_TRUE(lists(pushed, "exec mr -> row reply"));
  EXPECT_TRUE(lists(env, "exec mr -> vec (columnar reply)"));

  Answer rows = fed.downstream.query(pushed);
  ASSERT_TRUE(rows.complete());
  EXPECT_EQ(rows.stats().run.vec_leaf_batches, 0u);
  Answer columns = fed.downstream.query(env);
  ASSERT_TRUE(columns.complete());
  EXPECT_EQ(columns.stats().run.vec_leaf_batches, 1u);
}

TEST(FederationTest, ImplicitExtentOnTheDownstreamSide) {
  Federation fed;
  Answer a = fed.downstream.query("select x.pay from x in employees");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.data(),
            Value::bag({Value::integer(200), Value::integer(50)}));
}

TEST(FederationTest, UpstreamGrowthIsInvisibleDownstream) {
  // Adding a source to the upstream mediator changes nothing downstream —
  // scaling composes across tiers.
  Federation fed;
  memdb::Database db2("db2");
  auto& p2 = db2.create_table("person2",
                              {{"id", memdb::ColumnType::Int},
                               {"name", memdb::ColumnType::Text},
                               {"salary", memdb::ColumnType::Int}});
  p2.insert({Value::integer(3), Value::string("Lou"), Value::integer(75)});
  fed.upstream.wrapper0->attach_database("r2", &db2);
  fed.upstream.mediator.register_repository(
      catalog::Repository{"r2", "nile", "db", "123.45.6.9"});
  fed.upstream.mediator.execute_odl(
      "extent person2 of Person wrapper w0 repository r2;");

  Answer a = fed.downstream.query("select x.ename from x in staff");
  EXPECT_EQ(a.data().size(), 3u);
}

TEST(FederationTest, DownstreamSeesMediatorOutage) {
  // The *mediator's* endpoint goes down: partial answer at the
  // downstream tier, in downstream names.
  Federation fed;
  fed.downstream.network().set_availability(
      "mr", net::Availability::always_down());
  Answer a = fed.downstream.query("select x.ename from x in staff");
  ASSERT_FALSE(a.complete());
  EXPECT_EQ(a.residual_queries()[0], "select x.ename from x in staff");
  fed.downstream.network().set_availability(
      "mr", net::Availability::always_up());
  Answer b = fed.downstream.query(a.to_oql());
  EXPECT_TRUE(b.complete());
  EXPECT_EQ(b.data().size(), 2u);
}

TEST(FederationTest, UpstreamPartialAnswerIsAnError) {
  // Documented limit (fedcat/mediator_source.hpp): a remote partial answer
  // cannot be spliced into the local plan.
  Federation fed;
  fed.upstream.mediator.network().set_availability(
      "r0", net::Availability::always_down());
  EXPECT_THROW(fed.downstream.query("select x.ename from x in staff"),
               ExecutionError);
}

TEST(FederationTest, ThreeTierChain) {
  Federation fed;
  Mediator tier3;
  tier3.register_wrapper(
      "wm2", fedcat::MediatorSource::in_process(&fed.downstream));
  tier3.register_repository(
      catalog::Repository{"mr2", "t2-host", "disco", "10.0.0.2"});
  tier3.execute_odl(R"(
    interface Worker (extent workers) {
      attribute String who;
      attribute Short wage; };
    extent crew of Worker wrapper wm2 repository mr2
      map ((employees=crew),(ename=who),(pay=wage));
  )");
  Answer a = tier3.query("select x.who from x in crew where x.wage > 100");
  ASSERT_TRUE(a.complete());
  EXPECT_EQ(a.data(), Value::bag({Value::string("Mary")}));
}

TEST(FederationTest, JoinAcrossMediatorBoundary) {
  // Downstream join between a direct memdb source and the remote
  // mediator source.
  Federation fed;
  memdb::Database local("local");
  auto& bonus = local.create_table("bonus",
                                   {{"who", memdb::ColumnType::Text},
                                    {"amount", memdb::ColumnType::Int}});
  bonus.insert({Value::string("Mary"), Value::integer(11)});
  auto w = std::make_shared<wrapper::MemDbWrapper>();
  w->attach_database("rl", &local);
  fed.downstream.register_wrapper("wl", std::move(w));
  fed.downstream.register_repository(
      catalog::Repository{"rl", "local", "db", "127.0.0.1"});
  fed.downstream.execute_odl(R"(
    interface Bonus { attribute String who; attribute Short amount; };
    extent bonus of Bonus wrapper wl repository rl;
  )");
  Answer a = fed.downstream.query(
      "select struct(n: x.ename, total: x.pay + b.amount) "
      "from x in staff, b in bonus where x.ename = b.who");
  ASSERT_TRUE(a.complete());
  ASSERT_EQ(a.data().size(), 1u);
  EXPECT_EQ(a.data().items()[0].field("total"), Value::integer(211));
}

}  // namespace
}  // namespace disco
