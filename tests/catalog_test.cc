// Unit tests for relation/catalog.h: interning, typing, DbSchema.
#include "relation/catalog.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace viewcap {
namespace {

using testing::Unwrap;

TEST(CatalogTest, InternsAttributesIdempotently) {
  Catalog catalog;
  AttrId a1 = catalog.AddAttribute("A");
  AttrId a2 = catalog.AddAttribute("A");
  AttrId b = catalog.AddAttribute("B");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(catalog.AttributeName(a1), "A");
  EXPECT_EQ(catalog.num_attributes(), 2u);
}

TEST(CatalogTest, AddRelationValidates) {
  Catalog catalog;
  AttrSet ab = catalog.MakeScheme({"A", "B"});
  RelId r = Unwrap(catalog.AddRelation("r", ab));
  EXPECT_EQ(catalog.RelationName(r), "r");
  EXPECT_EQ(catalog.RelationScheme(r), ab);

  // Empty scheme rejected (schemes are nonempty, Section 1.1).
  Result<RelId> empty = catalog.AddRelation("bad", AttrSet{});
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kIllFormed);

  // Re-adding with the same type returns the same id.
  EXPECT_EQ(Unwrap(catalog.AddRelation("r", ab)), r);

  // Re-adding with a different type fails.
  AttrSet abc = catalog.MakeScheme({"A", "B", "C"});
  Result<RelId> conflict = catalog.AddRelation("r", abc);
  EXPECT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kIllFormed);
}

TEST(CatalogTest, AddRelationRejectsUnknownAttributeIds) {
  Catalog catalog;
  Result<RelId> bad = catalog.AddRelation("r", AttrSet{42});
  EXPECT_FALSE(bad.ok());
}

TEST(CatalogTest, FindByName) {
  Catalog catalog;
  AttrSet ab = catalog.MakeScheme({"A", "B"});
  RelId r = Unwrap(catalog.AddRelation("r", ab));
  EXPECT_EQ(Unwrap(catalog.FindRelation("r")), r);
  EXPECT_EQ(Unwrap(catalog.FindAttribute("A")), catalog.AddAttribute("A"));
  EXPECT_EQ(catalog.FindRelation("nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.FindAttribute("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, MintRelationAvoidsCollisions) {
  Catalog catalog;
  AttrSet ab = catalog.MakeScheme({"A", "B"});
  RelId m1 = catalog.MintRelation("__q", ab);
  RelId m2 = catalog.MintRelation("__q", ab);
  EXPECT_NE(m1, m2);
  EXPECT_NE(catalog.RelationName(m1), catalog.RelationName(m2));
  EXPECT_EQ(catalog.RelationScheme(m1), ab);
}

TEST(CatalogTest, UniverseIsUnionOfTypes) {
  Catalog catalog;
  RelId r = Unwrap(catalog.AddRelation("r", catalog.MakeScheme({"A", "B"})));
  RelId s = Unwrap(catalog.AddRelation("s", catalog.MakeScheme({"B", "C"})));
  EXPECT_EQ(catalog.Universe({r, s}), catalog.MakeScheme({"A", "B", "C"}));
}

TEST(DbSchemaTest, SortsAndDeduplicates) {
  Catalog catalog;
  RelId r = Unwrap(catalog.AddRelation("r", catalog.MakeScheme({"A"})));
  RelId s = Unwrap(catalog.AddRelation("s", catalog.MakeScheme({"B"})));
  DbSchema schema(catalog, {s, r, s});
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_TRUE(schema.Contains(r));
  EXPECT_TRUE(schema.Contains(s));
  EXPECT_EQ(schema.universe(), catalog.MakeScheme({"A", "B"}));
}

TEST(DbSchemaTest, DefaultIsEmpty) {
  DbSchema schema;
  EXPECT_EQ(schema.size(), 0u);
  EXPECT_FALSE(schema.Contains(0));
  EXPECT_TRUE(schema.universe().empty());
}

TEST(DbSchemaTest, ExtendedMatchesTheFromScratchSchema) {
  Catalog catalog;
  RelId r = Unwrap(catalog.AddRelation("r", catalog.MakeScheme({"A", "B"})));
  RelId s = Unwrap(catalog.AddRelation("s", catalog.MakeScheme({"B", "C"})));
  RelId t = Unwrap(catalog.AddRelation("t", catalog.MakeScheme({"D"})));
  RelId u = Unwrap(catalog.AddRelation("u", catalog.MakeScheme({"A", "E"})));
  const DbSchema base(catalog, {s, r});
  // Duplicate ids and ids already present.
  const DbSchema extended = base.Extended(catalog, {u, t, r, u, s});
  const DbSchema scratch(catalog, {r, s, t, u});
  EXPECT_EQ(extended.relations(), scratch.relations());
  EXPECT_EQ(extended.relations(), (std::vector<RelId>{r, s, t, u}));
  EXPECT_EQ(extended.universe(), scratch.universe());
  EXPECT_EQ(extended.universe(),
            catalog.MakeScheme({"A", "B", "C", "D", "E"}));
  // The extension leaves its base as it was.
  EXPECT_EQ(base.relations(), (std::vector<RelId>{r, s}));
  EXPECT_EQ(base.universe(), catalog.MakeScheme({"A", "B", "C"}));
  // From the empty schema it is the from-scratch constructor.
  EXPECT_EQ(DbSchema().Extended(catalog, {u, s, u}).relations(),
            DbSchema(catalog, {s, u}).relations());
}

TEST(DbSchemaTest, CopiesAndEmptyExtensionsShareOneArray) {
  Catalog catalog;
  RelId r = Unwrap(catalog.AddRelation("r", catalog.MakeScheme({"A"})));
  const DbSchema base(catalog, {r});
  const DbSchema copy = base;
  EXPECT_EQ(&copy.relations(), &base.relations());
  EXPECT_EQ(&copy.universe(), &base.universe());
  // Adding nothing new, or nothing at all, shares the array too.
  EXPECT_EQ(&base.Extended(catalog, {r, r}).relations(), &base.relations());
  EXPECT_EQ(&base.Extended(catalog, {}).relations(), &base.relations());
}

}  // namespace
}  // namespace viewcap
