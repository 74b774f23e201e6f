#include <gtest/gtest.h>

#include "catalog/catalog.hpp"
#include "common/error.hpp"
#include "oql/parser.hpp"
#include "oql/printer.hpp"

namespace disco::catalog {
namespace {

Catalog populated() {
  Catalog cat;
  cat.types().define(InterfaceType{"Person",
                                   "",
                                   {{"name", ScalarType::String},
                                    {"salary", ScalarType::Short}},
                                   "person"});
  cat.types().define(InterfaceType{"Student", "Person", {}, "student"});
  cat.define_repository(Repository{"r0", "rodin", "db", "123.45.6.7"});
  cat.define_repository(Repository{"r1", "ada", "db2", "123.45.6.8"});
  cat.define_extent(MetaExtent{"person0", "Person", "w0", "r0", {}});
  cat.define_extent(MetaExtent{"person1", "Person", "w0", "r1", {}});
  cat.define_extent(MetaExtent{"student0", "Student", "w0", "r1", {}});
  return cat;
}

// ------------------------------------------------------------- type maps ---

TEST(TypeMapTest, IdentityByDefault) {
  TypeMap map;
  EXPECT_TRUE(map.is_identity());
  EXPECT_EQ(map.source_relation("person0"), "person0");
  EXPECT_EQ(map.to_source_attribute("name"), "name");
  EXPECT_EQ(map.to_mediator_attribute("name"), "name");
}

TEST(TypeMapTest, PaperExample) {
  // §2.2.2: map ((person0=personprime0),(name=n),(salary=s))
  TypeMap map("person0", {{"name", "n"}, {"salary", "s"}});
  EXPECT_FALSE(map.is_identity());
  EXPECT_EQ(map.source_relation("personprime0"), "person0");
  EXPECT_EQ(map.to_source_attribute("n"), "name");
  EXPECT_EQ(map.to_source_attribute("s"), "salary");
  EXPECT_EQ(map.to_mediator_attribute("name"), "n");
  EXPECT_EQ(map.to_mediator_attribute("salary"), "s");
  // Unmapped names pass through.
  EXPECT_EQ(map.to_source_attribute("other"), "other");
}

TEST(TypeMapTest, RejectsDuplicates) {
  EXPECT_THROW(TypeMap("", {{"a", "x"}, {"a", "y"}}), CatalogError);
  EXPECT_THROW(TypeMap("", {{"a", "x"}, {"b", "x"}}), CatalogError);
}

TEST(TypeMapTest, OdlText) {
  TypeMap map("person0", {{"name", "n"}});
  EXPECT_EQ(map.to_odl("pp0"), "((person0=pp0),(name=n))");
  EXPECT_EQ(TypeMap().to_odl("e"), "");
}

// -------------------------------------------------------------- catalog ---

TEST(CatalogTest, Repositories) {
  Catalog cat = populated();
  EXPECT_TRUE(cat.has_repository("r0"));
  EXPECT_EQ(cat.repository("r0").host, "rodin");
  EXPECT_THROW(cat.repository("rX"), CatalogError);
  EXPECT_THROW(cat.define_repository(Repository{"r0", "", "", ""}),
               CatalogError);
  EXPECT_EQ(cat.repository_names(),
            (std::vector<std::string>{"r0", "r1"}));
}

TEST(CatalogTest, ExtentValidation) {
  Catalog cat = populated();
  EXPECT_THROW(
      cat.define_extent(MetaExtent{"person0", "Person", "w0", "r0", {}}),
      CatalogError);  // duplicate
  EXPECT_THROW(
      cat.define_extent(MetaExtent{"x1", "Nope", "w0", "r0", {}}),
      CatalogError);  // unknown type
  EXPECT_THROW(
      cat.define_extent(MetaExtent{"x1", "Person", "w0", "rX", {}}),
      CatalogError);  // unknown repository
  EXPECT_THROW(cat.define_extent(MetaExtent{"x1", "Person", "", "r0", {}}),
               CatalogError);  // missing wrapper
  EXPECT_THROW(
      cat.define_extent(MetaExtent{"person", "Person", "w0", "r0", {}}),
      CatalogError);  // collides with the implicit extent
}

TEST(CatalogTest, ExtentsOfTypeExcludesSubtypes) {
  // §2.2.1: "the extent of a type does not automatically reference the
  // extents of the sub-types".
  Catalog cat = populated();
  auto person = cat.extents_of_type("Person");
  ASSERT_EQ(person.size(), 2u);
  EXPECT_EQ(person[0]->name, "person0");
  EXPECT_EQ(person[1]->name, "person1");
}

TEST(CatalogTest, ClosureIncludesSubtypes) {
  // §2.2.1: person* refers to the extents of all subtypes.
  Catalog cat = populated();
  auto closure = cat.extents_of_closure("Person");
  ASSERT_EQ(closure.size(), 3u);
  EXPECT_EQ(closure[2]->name, "student0");
  EXPECT_EQ(cat.extents_of_closure("Student").size(), 1u);
}

TEST(CatalogTest, DropExtent) {
  Catalog cat = populated();
  cat.drop_extent("person1");
  EXPECT_FALSE(cat.has_extent("person1"));
  EXPECT_EQ(cat.extents_of_type("Person").size(), 1u);
  EXPECT_THROW(cat.drop_extent("person1"), CatalogError);
}

TEST(CatalogTest, MetaExtentRowsAreQueryable) {
  // §2.1: the MetaExtent meta-type with extent `metaextent`.
  Catalog cat = populated();
  Value rows = cat.metaextent_rows();
  ASSERT_EQ(rows.size(), 3u);
  const Value& first = rows.items()[0];
  EXPECT_EQ(first.field("name"), Value::string("person0"));
  EXPECT_EQ(first.field("interface"), Value::string("Person"));
  EXPECT_EQ(first.field("wrapper"), Value::string("w0"));
  EXPECT_EQ(first.field("repository"), Value::string("r0"));
}

TEST(CatalogTest, Views) {
  Catalog cat = populated();
  cat.define_view("rich", oql::parse(
      "select x.name from x in person where x.salary > 100"));
  EXPECT_TRUE(cat.has_view("rich"));
  EXPECT_EQ(oql::to_oql(cat.view("rich")),
            "select x.name from x in person where x.salary > 100");
  EXPECT_THROW(cat.view("nope"), CatalogError);
  EXPECT_THROW(cat.define_view("rich", oql::parse("person")), CatalogError);
  EXPECT_THROW(cat.define_view("person0", oql::parse("person")),
               CatalogError);  // collides with extent
  EXPECT_THROW(cat.define_view("person", oql::parse("person0")),
               CatalogError);  // collides with implicit extent
}

TEST(CatalogTest, ViewsMayReferenceViewsButNotCyclically) {
  // §2.3: "A view can reference other views, as long as the references
  // are not cyclic."
  Catalog cat = populated();
  cat.define_view("a", oql::parse("select x from x in person"));
  cat.define_view("b", oql::parse("select x from x in a"));
  EXPECT_NO_THROW(
      cat.define_view("c", oql::parse("union(a, b)")));
  // Self-reference is a cycle.
  EXPECT_THROW(cat.define_view("d", oql::parse("select x from x in d")),
               CatalogError);
}

TEST(CatalogTest, Classify) {
  Catalog cat = populated();
  cat.define_view("v", oql::parse("person"));
  EXPECT_EQ(cat.classify("v"), Catalog::NameKind::View);
  EXPECT_EQ(cat.classify("person"), Catalog::NameKind::ImplicitExtent);
  EXPECT_EQ(cat.classify("person0"), Catalog::NameKind::Extent);
  EXPECT_EQ(cat.classify("metaextent"), Catalog::NameKind::MetaExtentTable);
  EXPECT_EQ(cat.classify("zzz"), Catalog::NameKind::Unknown);
}

}  // namespace
}  // namespace disco::catalog
