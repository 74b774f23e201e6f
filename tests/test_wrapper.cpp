#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "catalog/catalog.hpp"
#include "common/error.hpp"
#include "core/mediator.hpp"
#include "fedcat/mediator_source.hpp"
#include "oql/parser.hpp"
#include "sources/csv/csv_source.hpp"
#include "sources/docstore/doc_store.hpp"
#include "sources/kvstore/kv_store.hpp"
#include "sources/memdb/database.hpp"
#include "wrapper/csv_wrapper.hpp"
#include "wrapper/doc_wrapper.hpp"
#include "wrapper/kv_wrapper.hpp"
#include "wrapper/memdb_wrapper.hpp"
#include "wrapper/rows.hpp"

namespace disco::wrapper {
namespace {

using algebra::filter;
using algebra::get;
using algebra::join;
using algebra::project;
using oql::parse;

class MemDbWrapperTest : public ::testing::Test {
 protected:
  MemDbWrapperTest() {
    auto& person = db_.create_table(
        "person0", {{"id", memdb::ColumnType::Int},
                    {"name", memdb::ColumnType::Text},
                    {"salary", memdb::ColumnType::Int}});
    person.insert({Value::integer(1), Value::string("Mary"),
                   Value::integer(200)});
    person.insert({Value::integer(2), Value::string("Sam"),
                   Value::integer(50)});
    auto& dept = db_.create_table("dept0", {{"pid", memdb::ColumnType::Int},
                                            {"dept", memdb::ColumnType::Text}});
    dept.insert({Value::integer(1), Value::string("cs")});

    repo_ = catalog::Repository{"r0", "rodin", "db", "1.2.3.4"};
    wrapper_.attach_database("r0", &db_);
    bindings_["person0"] = ExtentBinding{"person0", &identity_};
    bindings_["dept0"] = ExtentBinding{"dept0", &identity_};
  }

  memdb::Database db_{"db"};
  MemDbWrapper wrapper_;
  catalog::Repository repo_;
  catalog::TypeMap identity_;
  BindingMap bindings_;
};

TEST_F(MemDbWrapperTest, GetReturnsEnvStructs) {
  SubmitResult result = wrapper_.submit(repo_, get("person0", "x"),
                                        bindings_);
  ASSERT_EQ(result.status, SubmitResult::Status::Ok);
  EXPECT_EQ(wrapper_.last_sql(), "SELECT * FROM person0 x");
  ASSERT_EQ(result.bag().size(), 2u);
  const Value env = result.bag().items()[0];
  EXPECT_EQ(env.field("x").field("name"), Value::string("Mary"));
}

TEST_F(MemDbWrapperTest, SelectPushdownTranslatesPredicate) {
  SubmitResult result = wrapper_.submit(
      repo_, filter(get("person0", "x"), parse("x.salary > 10")),
      bindings_);
  ASSERT_EQ(result.status, SubmitResult::Status::Ok);
  EXPECT_EQ(wrapper_.last_sql(),
            "SELECT * FROM person0 x WHERE x.salary > 10");
  EXPECT_EQ(result.bag().size(), 2u);
}

TEST_F(MemDbWrapperTest, ScalarProjection) {
  SubmitResult result = wrapper_.submit(
      repo_,
      project(filter(get("person0", "x"), parse("x.salary > 100")),
              parse("x.name"), false),
      bindings_);
  ASSERT_EQ(result.status, SubmitResult::Status::Ok);
  EXPECT_EQ(wrapper_.last_sql(),
            "SELECT x.name FROM person0 x WHERE x.salary > 100");
  EXPECT_EQ(result.bag(), Value::bag({Value::string("Mary")}));
}

TEST_F(MemDbWrapperTest, StructProjection) {
  SubmitResult result = wrapper_.submit(
      repo_,
      project(get("person0", "x"),
              parse("struct(n: x.name, s: x.salary)"), false),
      bindings_);
  ASSERT_EQ(result.status, SubmitResult::Status::Ok);
  ASSERT_EQ(result.bag().size(), 2u);
  EXPECT_EQ(result.bag().items()[0].field("n"), Value::string("Mary"));
  EXPECT_EQ(result.bag().items()[0].field("s"), Value::integer(200));
}

TEST_F(MemDbWrapperTest, JoinPushdown) {
  SubmitResult result = wrapper_.submit(
      repo_,
      join(get("person0", "x"), get("dept0", "y"),
           parse("x.id = y.pid")),
      bindings_);
  ASSERT_EQ(result.status, SubmitResult::Status::Ok);
  EXPECT_EQ(wrapper_.last_sql(),
            "SELECT * FROM person0 x, dept0 y WHERE x.id = y.pid");
  ASSERT_EQ(result.bag().size(), 1u);
  const Value env = result.bag().items()[0];
  EXPECT_EQ(env.field("x").field("name"), Value::string("Mary"));
  EXPECT_EQ(env.field("y").field("dept"), Value::string("cs"));
}

TEST_F(MemDbWrapperTest, TypeMapAppliedBothWays) {
  // §2.2.2: extent personprime0, map ((person0=personprime0),(name=n),
  // (salary=s)).
  catalog::TypeMap map("person0", {{"name", "n"}, {"salary", "s"}});
  BindingMap bindings;
  bindings["personprime0"] = ExtentBinding{"person0", &map};
  SubmitResult result = wrapper_.submit(
      repo_, filter(get("personprime0", "x"), parse("x.s > 100")),
      bindings);
  ASSERT_EQ(result.status, SubmitResult::Status::Ok);
  // Mediator name `s` crossed the boundary as source name `salary`.
  EXPECT_EQ(wrapper_.last_sql(),
            "SELECT * FROM person0 x WHERE x.salary > 100");
  ASSERT_EQ(result.bag().size(), 1u);
  // Source attributes came back renamed to mediator names.
  EXPECT_EQ(result.bag().items()[0].field("x").field("n"),
            Value::string("Mary"));
}

TEST_F(MemDbWrapperTest, CapabilityGrammarEnforcedAtRuntime) {
  MemDbWrapper weak{grammar::CapabilitySet{.get = true}};
  weak.attach_database("r0", &db_);
  SubmitResult ok = weak.submit(repo_, get("person0", "x"), bindings_);
  EXPECT_EQ(ok.status, SubmitResult::Status::Ok);
  SubmitResult refused = weak.submit(
      repo_, filter(get("person0", "x"), parse("x.salary > 10")),
      bindings_);
  EXPECT_EQ(refused.status, SubmitResult::Status::Refused);
}

TEST_F(MemDbWrapperTest, RefusesWhatMiniSqlCannotSay) {
  // Arithmetic in a predicate is beyond MiniSQL even though the grammar
  // allows select(PREDICATE, ...).
  SubmitResult r1 = wrapper_.submit(
      repo_, filter(get("person0", "x"), parse("x.salary + 1 > 10")),
      bindings_);
  EXPECT_EQ(r1.status, SubmitResult::Status::Refused);
  // DISTINCT has no MiniSQL form.
  SubmitResult r2 = wrapper_.submit(
      repo_, project(get("person0", "x"), parse("x.name"), true),
      bindings_);
  EXPECT_EQ(r2.status, SubmitResult::Status::Refused);
  // Computed projections are not plain columns.
  SubmitResult r3 = wrapper_.submit(
      repo_,
      project(get("person0", "x"), parse("struct(d: x.salary * 2)"), false),
      bindings_);
  EXPECT_EQ(r3.status, SubmitResult::Status::Refused);
}

TEST_F(MemDbWrapperTest, CustomGrammarOverride) {
  // The paper's §3.2 non-composing grammar: get and project only.
  MemDbWrapper custom;
  custom.attach_database("r0", &db_);
  custom.set_grammar(grammar::Grammar::parse(
      "a :- b\n"
      "a :- c\n"
      "b :- get OPEN SOURCE CLOSE\n"
      "c :- project OPEN ATTRIBUTE COMMA SOURCE CLOSE\n"));
  EXPECT_EQ(custom
                .submit(repo_, project(get("person0", "x"),
                                       parse("x.name"), false),
                        bindings_)
                .status,
            SubmitResult::Status::Ok);
  EXPECT_EQ(custom
                .submit(repo_,
                        filter(get("person0", "x"), parse("x.salary > 1")),
                        bindings_)
                .status,
            SubmitResult::Status::Refused);
}

TEST_F(MemDbWrapperTest, UnknownRepositoryThrows) {
  catalog::Repository other{"rX", "", "", ""};
  EXPECT_THROW(wrapper_.submit(other, get("person0", "x"), bindings_),
               CatalogError);
}

TEST_F(MemDbWrapperTest, StringPredicateQuoting) {
  SubmitResult result = wrapper_.submit(
      repo_, filter(get("person0", "x"), parse("x.name = \"Mary\"")),
      bindings_);
  ASSERT_EQ(result.status, SubmitResult::Status::Ok);
  EXPECT_EQ(wrapper_.last_sql(),
            "SELECT * FROM person0 x WHERE x.name = \"Mary\"");
  EXPECT_EQ(result.bag().size(), 1u);
}

// ------------------------------------------------------------------- csv ---

TEST(CsvWrapperTest, GetOnly) {
  CsvWrapper wrapper;
  wrapper.attach_table("r0",
                       csv::parse_csv("water", "site,ph\nriver,7.1\n"));
  catalog::Repository repo{"r0", "", "", ""};
  catalog::TypeMap identity;
  BindingMap bindings;
  bindings["water"] = ExtentBinding{"water", &identity};

  SubmitResult ok = wrapper.submit(repo, get("water", "m"), bindings);
  ASSERT_EQ(ok.status, SubmitResult::Status::Ok);
  ASSERT_EQ(ok.bag().size(), 1u);
  EXPECT_EQ(ok.bag().items()[0].field("m").field("ph"), Value::real(7.1));

  SubmitResult refused = wrapper.submit(
      repo, filter(get("water", "m"), parse("m.ph > 7")), bindings);
  EXPECT_EQ(refused.status, SubmitResult::Status::Refused);
}

TEST(CsvWrapperTest, MapRenamesColumns) {
  CsvWrapper wrapper;
  wrapper.attach_table("r0",
                       csv::parse_csv("water", "site,ph\nriver,7.1\n"));
  catalog::Repository repo{"r0", "", "", ""};
  catalog::TypeMap map("water", {{"ph", "acidity"}});
  BindingMap bindings;
  bindings["measurements"] = ExtentBinding{"water", &map};
  SubmitResult ok = wrapper.submit(repo, get("measurements", "m"), bindings);
  ASSERT_EQ(ok.status, SubmitResult::Status::Ok);
  EXPECT_EQ(ok.bag().items()[0].field("m").field("acidity"),
            Value::real(7.1));
}

TEST(CsvWrapperTest, MissingRelationRefused) {
  CsvWrapper wrapper;
  wrapper.attach_table("r0", csv::parse_csv("water", "a\n1\n"));
  catalog::Repository repo{"r0", "", "", ""};
  catalog::TypeMap identity;
  BindingMap bindings;
  bindings["other"] = ExtentBinding{"other", &identity};
  EXPECT_EQ(wrapper.submit(repo, get("other", "m"), bindings).status,
            SubmitResult::Status::Refused);
  catalog::Repository unknown{"rX", "", "", ""};
  BindingMap b2;
  b2["water"] = ExtentBinding{"water", &identity};
  EXPECT_THROW(wrapper.submit(unknown, get("water", "m"), b2),
               CatalogError);
}

// ------------------------------------------------- one boundary for all ---

// The same generated Person rows served by every wrapper kind under one
// non-identity map: map ((people=person0),(name=n),(salary=s)). Whatever
// the source speaks, the answer crosses into the mediator in one format.
class WrapperBoundary : public ::testing::Test {
 protected:
  static constexpr int kRows = 12;

  WrapperBoundary() {
    auto& table = db_.create_table("people",
                                   {{"name", memdb::ColumnType::Text},
                                    {"salary", memdb::ColumnType::Int}});
    auto& upstream_table = upstream_db_.create_table(
        "people0", {{"name", memdb::ColumnType::Text},
                    {"salary", memdb::ColumnType::Int}});
    std::string csv_text = "name,salary\n";
    kvstore::KvCollection& kv = kv_.create_collection("people", "name");
    docstore::DocCollection& docs = docs_.create_collection("people");
    for (int i = 0; i < kRows; ++i) {
      const Value name = Value::string("p" + std::to_string(i));
      const Value salary = Value::integer((i * 37) % 50);  // repeats
      table.insert({name, salary});
      upstream_table.insert({name, salary});
      csv_text += name.as_string() + "," + std::to_string(salary.as_int()) +
                  "\n";
      kv.put(Value::strct({{"name", name}, {"salary", salary}}));
      docs.insert(Value::strct({{"name", name}, {"salary", salary}}));
      expected_env_.push_back(Value::strct(
          {{"x", Value::strct({{"n", name}, {"s", salary}})}}));
    }

    auto memdb = std::make_shared<MemDbWrapper>();
    memdb->attach_database("r", &db_);
    auto csv = std::make_shared<CsvWrapper>();
    csv->attach_table("r", csv::parse_csv("people", csv_text));
    auto kv_wrapper = std::make_shared<KvWrapper>();
    kv_wrapper->attach_store("r", &kv_);
    auto doc = std::make_shared<DocWrapper>();
    doc->attach_store("r", &docs_);

    // The mediator source ships OQL over the upstream's implicit extent
    // `people`, which is the remote name of this extent's relation.
    auto upstream_wrapper = std::make_shared<MemDbWrapper>();
    upstream_wrapper->attach_database("ru", &upstream_db_);
    upstream_.register_wrapper("wu", std::move(upstream_wrapper));
    upstream_.register_repository(catalog::Repository{"ru", "", "", ""});
    upstream_.execute_odl(R"(
      interface Person (extent people) {
        attribute String name;
        attribute Long salary; };
      extent people0 of Person wrapper wu repository ru;
    )");

    // name, wrapper, accepts pushed projections, accepts x.n = literal.
    wrappers_ = {
        {"memdb", memdb, true, true},
        {"csv", csv, false, false},
        {"kv", kv_wrapper, false, true},
        {"doc", doc, true, true},
        {"mediator", fedcat::MediatorSource::in_process(&upstream_), true,
         true},
    };
    bindings_["person0"] = ExtentBinding{"people", &map_};
  }

  struct Served {
    const char* name;
    std::shared_ptr<Wrapper> wrapper;
    bool projects;
    bool selects_equality;
  };

  /// Submits `expr` to every wrapper; each one that accepts must answer
  /// `expected`, and exactly the wrappers `accepts` names may refuse.
  void expect_everywhere(const algebra::LogicalPtr& expr,
                         const Value& expected,
                         const std::function<bool(const Served&)>& accepts) {
    for (const Served& served : wrappers_) {
      SCOPED_TRACE(served.name);
      SubmitResult result = served.wrapper->submit(repo_, expr, bindings_);
      if (!accepts(served)) {
        EXPECT_EQ(result.status, SubmitResult::Status::Refused);
        continue;
      }
      ASSERT_EQ(result.status, SubmitResult::Status::Ok) << result.detail;
      EXPECT_EQ(result.bag(), expected);
    }
  }

  memdb::Database db_{"db"};
  memdb::Database upstream_db_{"upstream"};
  kvstore::KvStore kv_{"kv"};
  docstore::DocStore docs_{"docs"};
  Mediator upstream_;
  catalog::TypeMap map_{"people", {{"name", "n"}, {"salary", "s"}}};
  catalog::Repository repo_{"r", "", "", ""};
  BindingMap bindings_;
  std::vector<Value> expected_env_;
  std::vector<Served> wrappers_;
};

TEST_F(WrapperBoundary, GetReturnsTheSameEnvRowsFromEveryWrapper) {
  expect_everywhere(get("person0", "x"), Value::bag(expected_env_),
                    [](const Served&) { return true; });
}

TEST_F(WrapperBoundary, PushedProjectionsAgreeWhereAccepted) {
  std::vector<Value> names;
  std::vector<Value> structs;
  for (const Value& env : expected_env_) {
    const Value& row = env.field("x");
    names.push_back(row.field("n"));
    structs.push_back(
        Value::strct({{"pay", row.field("s")}, {"who", row.field("n")}}));
  }
  auto projects = [](const Served& s) { return s.projects; };
  expect_everywhere(project(get("person0", "x"), parse("x.n"), false),
                    Value::bag(names), projects);
  expect_everywhere(
      project(get("person0", "x"), parse("struct(pay: x.s, who: x.n)"),
              false),
      Value::bag(structs), projects);
}

TEST_F(WrapperBoundary, PushedEqualitySelectionsAgreeWhereAccepted) {
  expect_everywhere(filter(get("person0", "x"), parse("x.n = \"p3\"")),
                    Value::bag({expected_env_[3]}),
                    [](const Served& s) { return s.selects_equality; });
}

TEST(WrapperRows, RenamesStructRowsThroughTheMap) {
  catalog::TypeMap map("", {{"name", "n"}});
  RowBuilder rows = RowBuilder::env();
  rows.add_struct("x", map);
  Value row = Value::strct({{"name", Value::string("Mary")},
                            {"id", Value::integer(1)}});
  Value renamed = rows.from_struct(row).field("x");
  EXPECT_EQ(renamed.field("n"), Value::string("Mary"));
  EXPECT_EQ(renamed.field("id"), Value::integer(1));
  // Unmapped names pass through, and a row the map leaves alone is the
  // source row itself.
  Value untouched = Value::strct({{"id", Value::integer(2)}});
  EXPECT_EQ(rows.from_struct(untouched).field("x"), untouched);
}

}  // namespace
}  // namespace disco::wrapper
