// Direct unit tests of the OQL -> logical translation (§3.2), below the
// optimizer's rewrite layer.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "fixtures.hpp"
#include "optimizer/translate.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"

namespace disco::optimizer {
namespace {

using oql::parse;

class TranslateTest : public ::testing::Test {
 protected:
  TranslationUnit run(const std::string& query) {
    return translate(parse(query), world_.mediator.catalog());
  }
  disco::testing::PaperWorld world_;
};

TEST_F(TranslateTest, PaperExampleShape) {
  // §3.2's exact translation.
  TranslationUnit unit = run("select x.name from x in person");
  ASSERT_TRUE(unit.is_plan_mode());
  EXPECT_EQ(algebra::to_algebra_string(unit.plan),
            "union(project(x.name, submit(r0, get(person0, x))), "
            "project(x.name, submit(r1, get(person1, x))))");
}

TEST_F(TranslateTest, WhereBecomesFilter) {
  TranslationUnit unit =
      run("select x.name from x in person0 where x.salary > 10");
  EXPECT_EQ(algebra::to_algebra_string(unit.plan),
            "project(x.name, select(x.salary > 10, "
            "submit(r0, get(person0, x))))");
}

TEST_F(TranslateTest, MultiBindingCartesianBranches) {
  // Two implicit-extent bindings over 2 sources each: 4 branches, the
  // odometer pairing every source with every other.
  TranslationUnit unit = run(
      "select struct(a: x.name, b: y.name) from x in person, y in person");
  ASSERT_TRUE(unit.is_plan_mode());
  ASSERT_EQ(unit.plan->op, algebra::LOp::Union);
  EXPECT_EQ(unit.plan->children.size(), 4u);
  std::set<std::string> combos;
  for (const algebra::LogicalPtr& branch : unit.plan->children) {
    auto extents = algebra::extents(branch);
    ASSERT_EQ(extents.size(), 2u);
    combos.insert(extents[0] + "/" + extents[1]);
  }
  EXPECT_EQ(combos.size(), 4u);
  EXPECT_TRUE(combos.contains("person0/person1"));
  EXPECT_TRUE(combos.contains("person1/person0"));
}

TEST_F(TranslateTest, UnionDomainConcatenatesSources) {
  TranslationUnit unit =
      run("select x.name from x in union(person0, person1)");
  ASSERT_EQ(unit.plan->op, algebra::LOp::Union);
  EXPECT_EQ(unit.plan->children.size(), 2u);
}

TEST_F(TranslateTest, ConstantDomainBecomesEnvConst) {
  TranslationUnit unit = run("select x from x in bag(1, 2)");
  ASSERT_TRUE(unit.is_plan_mode());
  ASSERT_EQ(unit.plan->op, algebra::LOp::Project);
  const algebra::LogicalPtr& leaf = unit.plan->child;
  ASSERT_EQ(leaf->op, algebra::LOp::Const);
  // Env-wrapped: struct(x: 1), struct(x: 2).
  EXPECT_EQ(leaf->data.items()[0].field("x"), Value::integer(1));
}

TEST_F(TranslateTest, MetaextentDomainIsConst) {
  TranslationUnit unit = run("select x.name from x in metaextent");
  ASSERT_EQ(unit.plan->op, algebra::LOp::Project);
  EXPECT_EQ(unit.plan->child->op, algebra::LOp::Const);
  EXPECT_EQ(unit.plan->child->data.size(), 2u);
}

TEST_F(TranslateTest, TopLevelUnionOfSelectsAndConstants) {
  // The shape of every §4 partial answer.
  TranslationUnit unit = run(
      "union((select x.name from x in person0), bag(\"Sam\"))");
  ASSERT_TRUE(unit.is_plan_mode());
  ASSERT_EQ(unit.plan->op, algebra::LOp::Union);
  EXPECT_EQ(unit.plan->children[0]->op, algebra::LOp::Project);
  EXPECT_EQ(unit.plan->children[1]->op, algebra::LOp::Const);
  EXPECT_EQ(unit.plan->children[1]->data,
            Value::bag({Value::string("Sam")}));
}

TEST_F(TranslateTest, NestedSelectExtentsBecomeAux) {
  TranslationUnit unit = run(
      "select struct(n: x.name, t: sum(select z.salary from z in person "
      "where z.id = x.id)) from x in person0");
  ASSERT_TRUE(unit.is_plan_mode());
  ASSERT_EQ(unit.aux.size(), 1u);
  EXPECT_EQ(unit.aux[0].first, "person");
  // The aux fetch plan unions both sources and projects raw rows.
  EXPECT_EQ(algebra::to_algebra_string(unit.aux[0].second),
            "union(project(x, submit(r0, get(person0, x))), "
            "project(x, submit(r1, get(person1, x))))");
}

TEST_F(TranslateTest, AuxDeduplicated) {
  TranslationUnit unit = run(
      "select struct(a: count(select z from z in person), "
      "b: sum(select z.salary from z in person)) from x in person0");
  EXPECT_EQ(unit.aux.size(), 1u);
}

TEST_F(TranslateTest, ClosureAuxSeparateFromPlainAux) {
  world_.mediator.execute_odl("interface Student : Person { };");
  TranslationUnit unit = run(
      "select struct(n: x.name, c: count(select z from z in person*)) "
      "from x in person0");
  EXPECT_TRUE(unit.aux.empty());
  ASSERT_EQ(unit.aux_closures.size(), 1u);
  EXPECT_EQ(unit.aux_closures[0].first, "person");
}

TEST_F(TranslateTest, LocalModeForAggregates) {
  // An aggregate whose collection cannot plan (a dependent domain)
  // still evaluates locally over materialized extents.
  TranslationUnit unit = run(
      "count(select m from g in (select struct(ms: bag(1, 2)) from x in "
      "person0), m in g.ms)");
  EXPECT_FALSE(unit.is_plan_mode());
  EXPECT_FALSE(unit.aggregate.has_value());
  EXPECT_NE(unit.local, nullptr);
  EXPECT_EQ(unit.aux.size(), 1u);
}

TEST_F(TranslateTest, AggregatesPlanTheirCollection) {
  TranslationUnit select = run("sum(select x.salary from x in person)");
  ASSERT_TRUE(select.is_plan_mode());
  ASSERT_TRUE(select.aggregate.has_value());
  EXPECT_EQ(*select.aggregate, Aggregate::Sum);
  EXPECT_FALSE(select.distinct);
  EXPECT_EQ(select.plan->children.size(), 2u);  // one branch per extent
  EXPECT_TRUE(select.aux.empty());

  TranslationUnit extent = run("count(person)");
  ASSERT_TRUE(extent.is_plan_mode());
  ASSERT_TRUE(extent.aggregate.has_value());
  EXPECT_EQ(*extent.aggregate, Aggregate::Count);
  EXPECT_EQ(extent.plan->children.size(), 2u);
  EXPECT_EQ(extent.prune.extents_considered, 2u);

  TranslationUnit closure = run("max(person*)");
  ASSERT_TRUE(closure.is_plan_mode());
  ASSERT_TRUE(closure.aggregate.has_value());
  EXPECT_EQ(*closure.aggregate, Aggregate::Max);

  // Each branch of a distinct select is distinct, their union is not:
  // the reduction collapses the whole answer first.
  TranslationUnit distinct =
      run("count(select distinct x.salary from x in person)");
  ASSERT_TRUE(distinct.aggregate.has_value());
  EXPECT_TRUE(distinct.distinct);

  // Not one of the five aggregates: local mode, as before.
  EXPECT_FALSE(run("element(select x from x in person0)").is_plan_mode());
}

TEST_F(TranslateTest, LocalModeForDependentDomains) {
  // Domains that are path expressions cannot distribute.
  TranslationUnit unit = run(
      "select m from g in (select struct(ms: bag(1, 2)) from x in person0), "
      "m in g.ms");
  EXPECT_FALSE(unit.is_plan_mode());
}

TEST_F(TranslateTest, ViewExpansionIsTransitive) {
  world_.mediator.execute_odl(
      "define rich as select x from x in person where x.salary > 100;\n"
      "define rich_names as select y.name from y in rich;");
  oql::ExprPtr expanded = expand_views(parse("rich_names"),
                                       world_.mediator.catalog());
  EXPECT_EQ(oql::to_oql(expanded),
            "select y.name from y in "
            "(select x from x in person where x.salary > 100)");
}

TEST_F(TranslateTest, EmptyTypeShortCircuitsToEmptyConst) {
  world_.mediator.execute_odl(
      "interface Ghost (extent ghosts) { attribute String name; };");
  TranslationUnit unit = run("select x.name from x in ghosts");
  ASSERT_TRUE(unit.is_plan_mode());
  EXPECT_EQ(unit.plan->op, algebra::LOp::Const);
  EXPECT_EQ(unit.plan->data, Value::bag({}));
}

TEST_F(TranslateTest, BranchLimitEnforced) {
  EXPECT_THROW(translate(parse("select struct(a: x.name, b: y.name) "
                               "from x in person, y in person"),
                         world_.mediator.catalog(), /*max_branches=*/3),
               ExecutionError);
}

TEST_F(TranslateTest, UnknownNamesThrow) {
  EXPECT_THROW(run("select x from x in ghost_town"), CatalogError);
  EXPECT_THROW(run("select x from x in person0 where x.a = mystery"),
               CatalogError);
  EXPECT_THROW(run("select x from x in nothing_star*"), CatalogError);
}

TEST_F(TranslateTest, FetchPlanForSingleExtent) {
  EXPECT_EQ(algebra::to_algebra_string(
                fetch_plan("person1", world_.mediator.catalog(), false)),
            "project(x, submit(r1, get(person1, x)))");
  EXPECT_THROW(fetch_plan("metaextent", world_.mediator.catalog(), false),
               CatalogError);
}

TEST_F(TranslateTest, NonCollectionConstantDomainRejected) {
  EXPECT_THROW(run("select x from x in 42"), ExecutionError);
}

}  // namespace
}  // namespace disco::optimizer
