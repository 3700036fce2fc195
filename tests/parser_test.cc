// Unit tests for algebra/parser.h and algebra/printer.h.
#include <gtest/gtest.h>

#include "algebra/ast.h"
#include "algebra/parser.h"
#include "algebra/printer.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

using testing::MustParse;
using testing::Unwrap;

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.AddRelation("r", catalog_.MakeScheme({"A", "B"})).value();
    catalog_.AddRelation("s", catalog_.MakeScheme({"B", "C"})).value();
  }
  Catalog catalog_;
};

TEST_F(ParserTest, ParsesRelationName) {
  ExprPtr e = MustParse(catalog_, "r");
  EXPECT_EQ(e->kind(), Expr::Kind::kRelName);
  EXPECT_EQ(catalog_.RelationName(e->rel()), "r");
}

TEST_F(ParserTest, ParsesProjection) {
  ExprPtr e = MustParse(catalog_, "pi{A}(r)");
  EXPECT_EQ(e->kind(), Expr::Kind::kProject);
  EXPECT_EQ(e->trs(), catalog_.MakeScheme({"A"}));
}

TEST_F(ParserTest, ParsesNaryJoinFlat) {
  ExprPtr e = MustParse(catalog_, "r * s * r");
  EXPECT_EQ(e->kind(), Expr::Kind::kJoin);
  EXPECT_EQ(e->children().size(), 3u);
  EXPECT_EQ(e->LeafCount(), 3u);
}

TEST_F(ParserTest, ParenthesesGroup) {
  ExprPtr e = MustParse(catalog_, "r * (s * r)");
  EXPECT_EQ(e->children().size(), 2u);
  EXPECT_EQ(e->children()[1]->kind(), Expr::Kind::kJoin);
}

TEST_F(ParserTest, WhitespaceAndCommentsIgnored) {
  ExprPtr e = MustParse(catalog_, "  pi{A, B} ( # comment\n r )  ");
  EXPECT_EQ(e->trs(), catalog_.MakeScheme({"A", "B"}));
  ExprPtr e2 = MustParse(catalog_, "r // c++ style\n * s");
  EXPECT_EQ(e2->LeafCount(), 2u);
}

TEST_F(ParserTest, ErrorsCarryPosition) {
  Result<ExprPtr> bad = ParseExpr(catalog_, "pi{A}(unknown)");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad.status().message().find("unknown"), std::string::npos);

  EXPECT_FALSE(ParseExpr(catalog_, "r *").ok());
  EXPECT_FALSE(ParseExpr(catalog_, "pi{}(r)").ok());
  EXPECT_FALSE(ParseExpr(catalog_, "(r").ok());
  EXPECT_FALSE(ParseExpr(catalog_, "r s").ok());
  EXPECT_FALSE(ParseExpr(catalog_, "r @ s").ok());
  EXPECT_FALSE(ParseExpr(catalog_, "").ok());
}

TEST_F(ParserTest, IllTypedProjectionRejected) {
  // C is not in TRS(r).
  Result<ExprPtr> bad = ParseExpr(catalog_, "pi{C}(r)");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIllFormed);
}

TEST_F(ParserTest, UnknownProjectedNameIsATypingErrorAndInternsNothing) {
  // Lowering only reads the catalog: a name it lacks lies outside every
  // TRS (Section 1.2), so it gets the ill-typed projection's error, at the
  // projection, and is not interned.
  const Catalog& catalog = catalog_;
  const std::size_t attributes = catalog.num_attributes();
  Result<ExprPtr> bad = ParseExpr(catalog, "pi{Zz}(r)");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIllFormed);
  EXPECT_EQ(bad.status().message(),
            "projection list is not a subset of the child's TRS at 1:1");
  bad = ParseExpr(catalog, "r * pi{A}(pi{Zz, B}(s))");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(),
            "projection list is not a subset of the child's TRS at 1:11");
  EXPECT_EQ(catalog.num_attributes(), attributes);
  EXPECT_FALSE(catalog.FindAttribute("Zz").ok());

  // The child is lowered first, so an unknown relation is still the error.
  bad = ParseExpr(catalog, "pi{Zz}(nope)");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_EQ(bad.status().message(), "unknown relation 'nope' at 1:8");
  EXPECT_EQ(catalog.num_attributes(), attributes);
}

TEST_F(ParserTest, PrinterRoundTrips) {
  const char* cases[] = {
      "r",
      "pi{A}(r)",
      "r * s",
      "pi{A, C}(r * s)",
      "pi{A, B}(r) * pi{B, C}(s)",
      "(r * s) * r",
      "pi{B}(pi{A, B}(r * s))",
  };
  for (const char* text : cases) {
    ExprPtr parsed = MustParse(catalog_, text);
    std::string printed = ToString(*parsed, catalog_);
    ExprPtr reparsed = MustParse(catalog_, printed);
    EXPECT_TRUE(Expr::StructurallyEqual(*parsed, *reparsed))
        << text << " -> " << printed;
  }
}

TEST_F(ParserTest, AttrSetPrinting) {
  EXPECT_EQ(ToString(catalog_.MakeScheme({"A", "B"}), catalog_), "{A, B}");
  EXPECT_EQ(ToString(AttrSet{}, catalog_), "{}");
}

TEST(ProgramTest, ParsesSchemaAndViews) {
  Catalog catalog;
  ParsedProgram program = Unwrap(ParseProgram(catalog, R"(
    schema { r(A, B); s(B, C); }
    view V { v1 := pi{A, B}(r); v2 := r * s; }
    view W { w := pi{A}(r); }
  )"));
  EXPECT_EQ(program.base_relations.size(), 2u);
  ASSERT_EQ(program.views.size(), 2u);
  EXPECT_EQ(program.views[0].name, "V");
  EXPECT_EQ(program.views[0].definitions.size(), 2u);
  EXPECT_EQ(program.views[1].definitions.size(), 1u);
  // View relation names are interned with the TRS of their query.
  RelId v2 = program.views[0].definitions[1].view_rel;
  EXPECT_EQ(catalog.RelationScheme(v2), catalog.MakeScheme({"A", "B", "C"}));
}

TEST(ProgramTest, ViewsSeeEarlierSchemaBlocksAcrossText) {
  Catalog catalog;
  ParsedProgram program = Unwrap(ParseProgram(catalog, R"(
    schema { r(A, B); }
    view V { v := r; }
    schema { s(B, C); }
    view W { w := r * s; }
  )"));
  EXPECT_EQ(program.views.size(), 2u);
}

TEST(ProgramTest, Failures) {
  Catalog catalog;
  EXPECT_FALSE(ParseProgram(catalog, "view V { v := r; }").ok());
  EXPECT_FALSE(ParseProgram(catalog, "schema { r(A,B) }").ok());
  EXPECT_FALSE(ParseProgram(catalog, "bogus { }").ok());
  EXPECT_FALSE(ParseProgram(catalog, "schema { r(); }").ok());
  EXPECT_FALSE(
      ParseProgram(catalog, "schema { r(A); } view V { v = r; }").ok());
}

TEST_F(ParserTest, ErrorPositionsAreExact) {
  // The unknown name starts at line 1, column 7 (1-based).
  Result<ExprPtr> bad = ParseExpr(catalog_, "pi{A}(unknown)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("at 1:7"), std::string::npos)
      << bad.status().message();
  // Locations track newlines.
  Result<ExprPtr> bad2 = ParseExpr(catalog_, "r *\n  nope");
  ASSERT_FALSE(bad2.ok());
  EXPECT_NE(bad2.status().message().find("at 2:3"), std::string::npos)
      << bad2.status().message();
}

TEST_F(ParserTest, AstCarriesSpans) {
  std::vector<SyntaxError> errors;
  AstExprPtr ast = ParseExprAst("pi{A, B}( r * s )", errors);
  ASSERT_NE(ast, nullptr);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(ast->kind, AstExpr::Kind::kProject);
  // The node's extent runs from its first token to one past its last.
  EXPECT_EQ(ast->span.begin, (SourceLocation{1, 1}));
  EXPECT_EQ(ast->span.end, (SourceLocation{1, 18}));
  ASSERT_EQ(ast->projection.size(), 2u);
  EXPECT_EQ(ast->projection[0].span.begin, (SourceLocation{1, 4}));
  EXPECT_EQ(ast->projection[1].span.begin, (SourceLocation{1, 7}));
  ASSERT_EQ(ast->children.size(), 1u);
  const AstExpr& join = *ast->children[0];
  ASSERT_EQ(join.kind, AstExpr::Kind::kJoin);
  EXPECT_EQ(join.span.begin, (SourceLocation{1, 11}));
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_EQ(join.children[1]->span.begin, (SourceLocation{1, 15}));
}

TEST(ProgramAstTest, DeclarationAndDefinitionSpans) {
  std::vector<SyntaxError> errors;
  AstProgram program = ParseProgramAst(
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(r); }\n",
      errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(program.items.size(), 2u);
  ASSERT_EQ(program.items[0].relations.size(), 1u);
  EXPECT_EQ(program.items[0].relations[0].name_span.begin,
            (SourceLocation{1, 10}));
  const AstView& view = program.items[1].view;
  EXPECT_EQ(view.name_span.begin, (SourceLocation{2, 6}));
  ASSERT_EQ(view.definitions.size(), 1u);
  EXPECT_EQ(view.definitions[0].name_span.begin, (SourceLocation{2, 10}));
}

TEST(ProgramAstTest, RecoversPastBrokenStatements) {
  std::vector<SyntaxError> errors;
  AstProgram program = ParseProgramAst(
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(r) @; y := r; }\n",
      errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].span.begin, (SourceLocation{2, 24}));
  // The definition after the broken one survives.
  ASSERT_EQ(program.items.size(), 2u);
  const AstView& view = program.items[1].view;
  ASSERT_GE(view.definitions.size(), 1u);
  EXPECT_EQ(view.definitions.back().name, "y");
}

TEST(ProgramTest, LoadErrorsNameTheirPosition) {
  Catalog catalog;
  Result<ParsedProgram> bad = ParseProgram(catalog, R"(schema { r(A, B); }
view V { v := pi{A}(ghost); }
)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("at 2:21"), std::string::npos)
      << bad.status().message();
}

TEST(ProgramTest, RedefiningViewRelationWithOtherTypeFails) {
  Catalog catalog;
  Result<ParsedProgram> bad = ParseProgram(catalog, R"(
    schema { r(A, B); }
    view V { v := r; }
    view W { v := pi{A}(r); }
  )");
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace viewcap
