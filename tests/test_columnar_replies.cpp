// Columnar replies at the source boundary (wrapper/rows.hpp).
//
// Every built-in wrapper builds its reply in columns. The differential
// here pins what that must mean: for each wrapper kind and reply shape,
// vec::to_rows of the columnar reply equals, element by element and in
// order, the rows the same submit describes (built here by hand from the
// source data); and wherever vec::from_rows declines those rows (a
// nested value, a type fight inside a batch, a layout change, a variable
// with no attributes), the reply comes back as those rows instead.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/mediator.hpp"
#include "fedcat/mediator_source.hpp"
#include "oql/parser.hpp"
#include "sources/csv/csv_source.hpp"
#include "sources/docstore/doc_store.hpp"
#include "sources/kvstore/kv_store.hpp"
#include "sources/memdb/database.hpp"
#include "vec/batch.hpp"
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

Value env1(const std::string& var, Value row) {
  return Value::strct({{var, std::move(row)}});
}

/// The reply must be `expected`, element by element: in columns when
/// from_rows takes those rows, as the rows themselves when it declines.
void expect_reply(const SubmitResult& result,
                  const std::vector<Value>& expected) {
  ASSERT_EQ(result.status, SubmitResult::Status::Ok) << result.detail;
  ASSERT_EQ(result.rows(), expected.size());
  const std::optional<vec::Table> converted =
      vec::from_rows(expected, vec::VecOptions{}.batch_rows);
  std::vector<Value> got;
  if (converted.has_value()) {
    ASSERT_TRUE(result.table.has_value()) << "from_rows takes these rows";
    EXPECT_FALSE(result.columns_declined);
    EXPECT_TRUE(result.data.is_null());
    EXPECT_TRUE(result.table->schema.same_layout(converted->schema));
    got = vec::to_rows(*result.table);
  } else {
    ASSERT_FALSE(result.table.has_value()) << "from_rows declines these rows";
    EXPECT_TRUE(result.columns_declined);
    got = result.data.items();
  }
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    // to_oql tells Int 1 from Double 1.0, which == does not.
    EXPECT_EQ(got[i].to_oql(), expected[i].to_oql()) << "row " << i;
  }
  EXPECT_EQ(result.bag(), Value::bag(expected));
}

catalog::Repository repo() { return catalog::Repository{"r", "", "", ""}; }

// ------------------------------------------------------------- memdb ---

class MemDbReplies : public ::testing::Test {
 protected:
  MemDbReplies() {
    auto& person = db_.create_table("person", {{"id", memdb::ColumnType::Int},
                                               {"name", memdb::ColumnType::Text},
                                               {"salary", memdb::ColumnType::Int}});
    person.insert({Value::integer(1), Value::string("Mary"),
                   Value::integer(200)});
    person.insert({Value::integer(2), Value::null(), Value::integer(50)});
    person.insert({Value::integer(3), Value::string("Ann"), Value::null()});
    auto& dept = db_.create_table("dept", {{"pid", memdb::ColumnType::Int},
                                           {"dept", memdb::ColumnType::Text}});
    dept.insert({Value::integer(1), Value::string("cs")});
    dept.insert({Value::integer(3), Value::string("ee")});
    wrapper_.attach_database("r", &db_);
    bindings_["person0"] = ExtentBinding{"person", &map_};
    bindings_["dept0"] = ExtentBinding{"dept", &identity_};
  }

  SubmitResult submit(const algebra::LogicalPtr& expr) {
    return wrapper_.submit(repo(), expr, bindings_);
  }

  /// person row i, in mediator names (salary is `s`).
  Value person(int i) const {
    static const Value rows[] = {
        Value::strct({{"id", Value::integer(1)},
                      {"name", Value::string("Mary")},
                      {"s", Value::integer(200)}}),
        Value::strct({{"id", Value::integer(2)},
                      {"name", Value::null()},
                      {"s", Value::integer(50)}}),
        Value::strct({{"id", Value::integer(3)},
                      {"name", Value::string("Ann")},
                      {"s", Value::null()}}),
    };
    return rows[i];
  }

  memdb::Database db_{"db"};
  MemDbWrapper wrapper_;
  catalog::TypeMap map_{"person", {{"salary", "s"}}};
  catalog::TypeMap identity_;
  BindingMap bindings_;
};

TEST_F(MemDbReplies, EnvRowsOfOneAndTwoVariables) {
  expect_reply(submit(get("person0", "x")),
               {env1("x", person(0)), env1("x", person(1)),
                env1("x", person(2))});
  SubmitResult joined = submit(join(get("person0", "x"), get("dept0", "y"),
                                    parse("x.id = y.pid")));
  auto dept = [](int pid, const char* name) {
    return Value::strct(
        {{"pid", Value::integer(pid)}, {"dept", Value::string(name)}});
  };
  expect_reply(joined, {Value::strct({{"x", person(0)}, {"y", dept(1, "cs")}}),
                        Value::strct({{"x", person(2)}, {"y", dept(3, "ee")}})});
}

TEST_F(MemDbReplies, ScalarAndStructProjections) {
  expect_reply(submit(project(get("person0", "x"), parse("x.name"), false)),
               {Value::string("Mary"), Value::null(), Value::string("Ann")});
  expect_reply(
      submit(project(get("person0", "x"), parse("struct(n: x.name, p: x.s)"),
                     false)),
      {Value::strct({{"n", Value::string("Mary")}, {"p", Value::integer(200)}}),
       Value::strct({{"n", Value::null()}, {"p", Value::integer(50)}}),
       Value::strct({{"n", Value::string("Ann")}, {"p", Value::null()}})});
}

TEST_F(MemDbReplies, EmptyRepliesAreEmptyTables) {
  SubmitResult none = submit(filter(get("person0", "x"), parse("x.id > 9")));
  expect_reply(none, {});
  ASSERT_TRUE(none.table.has_value());
  EXPECT_EQ(none.table->rows(), 0u);
  expect_reply(
      submit(project(filter(get("person0", "x"), parse("x.id > 9")),
                     parse("x.name"), false)),
      {});
}

// --------------------------------------------------------------- csv ---

SubmitResult csv_submit(const std::string& text) {
  CsvWrapper wrapper;
  wrapper.attach_table("r", csv::parse_csv("t", text));
  catalog::TypeMap identity;
  BindingMap bindings;
  bindings["t0"] = ExtentBinding{"t", &identity};
  return wrapper.submit(repo(), get("t0", "x"), bindings);
}

Value csv_row(Value id, Value v) {
  return env1("x", Value::strct({{"id", std::move(id)}, {"v", std::move(v)}}));
}

TEST(CsvReplies, NilCellsStayInColumns) {
  expect_reply(csv_submit("id,v\n1,a\n2,\n3,c\n"),
               {csv_row(Value::integer(1), Value::string("a")),
                csv_row(Value::integer(2), Value::null()),
                csv_row(Value::integer(3), Value::string("c"))});
}

TEST(CsvReplies, MixedIntDoubleColumnDeclinesWithinABatch) {
  // 2 then 2.5 in one batch: a type fight, so the reply is rows, the
  // ones before the fight included.
  expect_reply(csv_submit("id,v\n1,2\n2,\n3,2.5\n4,7\n"),
               {csv_row(Value::integer(1), Value::integer(2)),
                csv_row(Value::integer(2), Value::null()),
                csv_row(Value::integer(3), Value::real(2.5)),
                csv_row(Value::integer(4), Value::integer(7))});
}

TEST(CsvReplies, MixedIntDoubleAcrossBatchesStaysColumnar) {
  // Column types are per batch: Ints fill the first batch, Doubles the
  // second, exactly as from_rows cuts them.
  const size_t batch = vec::VecOptions{}.batch_rows;
  std::string text = "id,v\n";
  std::vector<Value> expected;
  for (size_t i = 0; i < batch + 5; ++i) {
    const bool whole = i < batch;
    text += std::to_string(i) + (whole ? ",3\n" : ",3.5\n");
    expected.push_back(csv_row(Value::integer(static_cast<int64_t>(i)),
                               whole ? Value::integer(3) : Value::real(3.5)));
  }
  SubmitResult result = csv_submit(text);
  expect_reply(result, expected);
  ASSERT_TRUE(result.table.has_value());
  ASSERT_EQ(result.table->batches.size(), 2u);
  EXPECT_EQ(result.table->batches[0].columns[1]->type(), vec::ColType::Int);
  EXPECT_EQ(result.table->batches[1].columns[1]->type(),
            vec::ColType::Double);
}

// ---------------------------------------------------------------- kv ---

class KvReplies : public ::testing::Test {
 protected:
  SubmitResult submit(const std::vector<Value>& rows,
                      const catalog::TypeMap& map) {
    kvstore::KvStore store("kv");
    kvstore::KvCollection& people = store.create_collection("people", "id");
    for (const Value& row : rows) people.put(row);
    KvWrapper wrapper;
    wrapper.attach_store("r", &store);
    BindingMap bindings;
    bindings["people0"] = ExtentBinding{"people", &map};
    return wrapper.submit(repo(), get("people0", "x"), bindings);
  }

  static Value row(int64_t id, Value name) {
    return Value::strct({{"id", Value::integer(id)}, {"name", std::move(name)}});
  }

  catalog::TypeMap identity_;
  catalog::TypeMap renames_{"people", {{"name", "n"}}};
};

TEST_F(KvReplies, UniformLayoutIsColumnarThroughARenamingMap) {
  expect_reply(submit({row(1, Value::string("a")), row(2, Value::null())},
                      renames_),
               {env1("x", Value::strct({{"id", Value::integer(1)},
                                        {"n", Value::string("a")}})),
                env1("x", Value::strct({{"id", Value::integer(2)},
                                        {"n", Value::null()}}))});
  expect_reply(submit({row(1, Value::string("a")), row(2, Value::string("b"))},
                      identity_),
               {env1("x", row(1, Value::string("a"))),
                env1("x", row(2, Value::string("b")))});
}

TEST_F(KvReplies, ALayoutChangeDeclines) {
  const Value wider = Value::strct({{"id", Value::integer(2)},
                                    {"name", Value::string("b")},
                                    {"age", Value::integer(7)}});
  const Value reordered = Value::strct(
      {{"name", Value::string("c")}, {"id", Value::integer(3)}});
  expect_reply(submit({row(1, Value::string("a")), wider}, identity_),
               {env1("x", row(1, Value::string("a"))), env1("x", wider)});
  expect_reply(submit({row(1, Value::string("a")), reordered}, identity_),
               {env1("x", row(1, Value::string("a"))), env1("x", reordered)});
  // A row without attributes has no column to live in.
  const Value empty = Value::strct({});
  RowBuilder rows = RowBuilder::env();
  rows.add_struct("x", identity_);
  rows.append_struct(empty);
  SubmitResult result = rows.finish();
  EXPECT_TRUE(result.columns_declined);
  EXPECT_EQ(result.bag(), Value::bag({env1("x", empty)}));
}

TEST_F(KvReplies, NestedValuesDecline) {
  const Value nested =
      Value::strct({{"id", Value::integer(2)},
                    {"name", Value::list({Value::string("b")})}});
  expect_reply(submit({row(1, Value::string("a")), nested}, identity_),
               {env1("x", row(1, Value::string("a"))), env1("x", nested)});
  // And when the nested row comes first.
  const Value first = Value::strct(
      {{"id", Value::integer(0)},
       {"name", Value::strct({{"given", Value::string("z")}})}});
  expect_reply(submit({first, row(1, Value::string("a"))}, identity_),
               {env1("x", first), env1("x", row(1, Value::string("a")))});
}

// --------------------------------------------------------------- doc ---

class DocReplies : public ::testing::Test {
 protected:
  DocReplies() {
    docstore::DocCollection& docs = store_.create_collection("readings");
    docs.insert(Value::strct(
        {{"id", Value::integer(1)},
         {"meta", Value::strct({{"site", Value::string("river")}})}}));
    docs.insert(Value::strct(
        {{"id", Value::integer(2)},
         {"meta", Value::strct({{"site", Value::string("lake")}})}}));
    docs.insert(Value::strct({{"id", Value::integer(3)}}));
    wrapper_.attach_store("r", &store_);
    bindings_["flat"] = ExtentBinding{"readings", &flat_};
    bindings_["whole"] = ExtentBinding{"readings", &identity_};
  }

  SubmitResult submit(const algebra::LogicalPtr& expr) {
    return wrapper_.submit(repo(), expr, bindings_);
  }

  docstore::DocStore store_{"docs"};
  DocWrapper wrapper_;
  catalog::TypeMap flat_{"readings", {{"id", "id"}, {"meta.site", "site"}}};
  catalog::TypeMap identity_{"readings", {}};
  BindingMap bindings_;
};

TEST_F(DocReplies, MappedNestedPathsAreColumnar) {
  auto flat = [](int64_t id, Value site) {
    return env1("x", Value::strct({{"id", Value::integer(id)},
                                   {"site", std::move(site)}}));
  };
  expect_reply(submit(get("flat", "x")),
               {flat(1, Value::string("river")), flat(2, Value::string("lake")),
                flat(3, Value::null())});
  expect_reply(submit(project(get("flat", "x"), parse("x.site"), false)),
               {Value::string("river"), Value::string("lake"), Value::null()});
}

TEST_F(DocReplies, WholeNestedDocumentsDecline) {
  std::vector<Value> expected;
  for (const Value& doc : store_.collection("readings").docs()) {
    expected.push_back(env1("x", doc));
  }
  expect_reply(submit(get("whole", "x")), expected);
  // A path projection into the nested documents is flat again.
  expect_reply(submit(project(get("whole", "x"), parse("x.meta.site"), false)),
               {Value::string("river"), Value::string("lake"), Value::null()});
}

// -------------------------------------------------------- mediator ---

TEST(MediatorSourceReplies, EnvRowsAreRenamedIntoColumns) {
  memdb::Database db("upstream");
  auto& table = db.create_table("people0", {{"name", memdb::ColumnType::Text},
                                           {"salary", memdb::ColumnType::Int}});
  table.insert({Value::string("a"), Value::integer(1)});
  table.insert({Value::string("b"), Value::null()});
  Mediator upstream;
  auto memdb = std::make_shared<MemDbWrapper>();
  memdb->attach_database("ru", &db);
  upstream.register_wrapper("wu", std::move(memdb));
  upstream.register_repository(catalog::Repository{"ru", "", "", ""});
  upstream.execute_odl(R"(
    interface Person (extent people) {
      attribute String name;
      attribute Long salary; };
    extent people0 of Person wrapper wu repository ru;
  )");
  auto source = fedcat::MediatorSource::in_process(&upstream);
  catalog::TypeMap map{"people", {{"name", "n"}, {"salary", "s"}}};
  BindingMap bindings;
  bindings["person0"] = ExtentBinding{"people", &map};

  auto row = [](const char* name, Value salary) {
    return env1("x", Value::strct({{"n", Value::string(name)},
                                   {"s", std::move(salary)}}));
  };
  expect_reply(source->submit(repo(), get("person0", "x"), bindings),
               {row("a", Value::integer(1)), row("b", Value::null())});
  expect_reply(
      source->submit(repo(), filter(get("person0", "x"), parse("x.s = 5")),
                     bindings),
      {});
  // A pushed projection's values come back as the remote answered them.
  SubmitResult names = source->submit(
      repo(), project(get("person0", "x"), parse("x.n"), false), bindings);
  ASSERT_EQ(names.status, SubmitResult::Status::Ok);
  EXPECT_EQ(names.bag(),
            Value::bag({Value::string("a"), Value::string("b")}));
}

// ------------------------------------------------------- RowBuilder ---

TEST(RowBuilderColumns, AVariableWithoutColumnsDeclines) {
  catalog::TypeMap identity;
  RowBuilder rows = RowBuilder::env();
  rows.add_columns("x", identity, std::vector<std::string>{});
  rows.append({});
  SubmitResult result = rows.finish();
  EXPECT_FALSE(result.table.has_value());
  EXPECT_TRUE(result.columns_declined);
  EXPECT_EQ(result.bag(), Value::bag({env1("x", Value::strct({}))}));
}

TEST(RowBuilderColumns, ANestedScalarProjectionDeclinesMidway) {
  RowBuilder rows = RowBuilder::scalar();
  rows.append({Value::integer(1)});
  rows.append({Value::integer(2)});
  rows.append({Value::bag({Value::integer(3)})});
  rows.append({Value::integer(4)});
  SubmitResult result = rows.finish();
  EXPECT_TRUE(result.columns_declined);
  EXPECT_EQ(result.data.to_oql(), "bag(1, 2, bag(3), 4)");
}

}  // namespace
}  // namespace disco::wrapper
