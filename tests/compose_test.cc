// Tests for views/compose.h: view composition and program export.
#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "algebra/parser.h"
#include "core/analyzer.h"
#include "relation/generator.h"
#include "tests/test_util.h"
#include "views/compose.h"
#include "views/equivalence.h"

namespace viewcap {
namespace {

using testing::EngineFactory;
using testing::MustParse;
using testing::Unwrap;

class ComposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = Unwrap(catalog_.AddRelation("r", catalog_.MakeScheme({"A", "B"})));
    s_ = Unwrap(catalog_.AddRelation("s", catalog_.MakeScheme({"B", "C"})));
    base_ = DbSchema(catalog_, {r_, s_});
    v1_ = Unwrap(catalog_.AddRelation("v1", catalog_.MakeScheme({"A", "B"})));
    v2_ = Unwrap(catalog_.AddRelation("v2", catalog_.MakeScheme({"B", "C"})));
    inner_ = Unwrap(View::Create(
        &catalog_, base_,
        {{v1_, MustParse(catalog_, "pi{A, B}(r * s)")},
         {v2_, MustParse(catalog_, "pi{B, C}(r * s)")}},
        "Inner"));
    w_ = Unwrap(catalog_.AddRelation("w", catalog_.MakeScheme({"A", "C"})));
    outer_ = Unwrap(View::Create(
        &catalog_, DbSchema(catalog_, {v1_, v2_}),
        {{w_, MustParse(catalog_, "pi{A, C}(v1 * v2)")}}, "Outer"));
  }

  Catalog catalog_;
  EngineFactory engines_{&catalog_};
  RelId r_ = kInvalidRel, s_ = kInvalidRel;
  RelId v1_ = kInvalidRel, v2_ = kInvalidRel, w_ = kInvalidRel;
  DbSchema base_;
  std::optional<View> inner_, outer_;
};

TEST_F(ComposeTest, FlattensOverTheBase) {
  View composed = Unwrap(Compose(*inner_, *outer_));
  EXPECT_EQ(composed.size(), 1u);
  EXPECT_EQ(composed.base().relations(), base_.relations());
  EXPECT_EQ(composed.name(), "Outer_over_Inner");
  // The flattened query mentions only base relations.
  for (RelId rel : composed.definitions()[0].query->RelNames()) {
    EXPECT_TRUE(base_.Contains(rel));
  }
}

TEST_F(ComposeTest, CompositionSemantics) {
  // alpha_{composed}(w) == (alpha_{inner})_{outer}(w) for all alpha.
  View composed = Unwrap(Compose(*inner_, *outer_));
  InstanceOptions options;
  options.tuples_per_relation = 5;
  options.domain_size = 3;
  InstanceGenerator generator(&catalog_, options);
  Random rng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    Instantiation alpha = generator.Generate(base_, rng);
    Instantiation via_composed = composed.Induce(alpha);
    Instantiation via_stack = outer_->Induce(inner_->Induce(alpha));
    EXPECT_EQ(via_composed.Get(w_), via_stack.Get(w_)) << "trial " << trial;
  }
}

TEST_F(ComposeTest, CompositionNeverGainsCapacity) {
  View composed = Unwrap(Compose(*inner_, *outer_));
  DominanceResult dom = Unwrap(Dominates(engines_.New(), *inner_, composed));
  EXPECT_TRUE(dom.dominates);
  // And here it genuinely loses capacity (v1 is not recoverable from w).
  DominanceResult reverse =
      Unwrap(Dominates(engines_.New(), composed, *inner_));
  EXPECT_FALSE(reverse.dominates);
}

TEST_F(ComposeTest, RejectsForeignOuterQueries) {
  // An "outer" view whose query reads a base relation directly is not a
  // view of the inner view's schema.
  RelId bad = Unwrap(catalog_.AddRelation("bad", catalog_.MakeScheme({"A", "B"})));
  View not_over_inner = Unwrap(View::Create(
      &catalog_, base_, {{bad, MustParse(catalog_, "r")}}, "Bad"));
  EXPECT_EQ(Compose(*inner_, not_over_inner).status().code(),
            StatusCode::kIllFormed);
}

TEST_F(ComposeTest, ExportRoundTripsThroughTheParser) {
  std::string program = ExportProgram(*inner_);
  Analyzer fresh;
  VIEWCAP_ASSERT_OK(fresh.Load(program));
  const View* reloaded = Unwrap(fresh.GetView("Inner"));
  ASSERT_EQ(reloaded->size(), inner_->size());
  for (std::size_t i = 0; i < reloaded->size(); ++i) {
    EXPECT_TRUE(Expr::StructurallyEqual(*reloaded->definitions()[i].query,
                                        *inner_->definitions()[i].query));
  }
}

TEST(AnalyzerComposeTest, TextualViewsOfViewsAreFlattenedAtLoad) {
  Analyzer analyzer;
  VIEWCAP_ASSERT_OK(analyzer.Load(R"(
    schema { r(A, B); s(B, C); }
    view Inner { v1 := pi{A,B}(r * s); v2 := pi{B,C}(r * s); }
    view Outer { w := pi{A,C}(v1 * v2); }
  )"));
  // 'Outer' references 'Inner''s relations; Load flattens it to a
  // base-level view (Lemma 1.4.1), so its stored query mentions only r, s.
  const View* outer = Unwrap(analyzer.GetView("Outer"));
  ASSERT_EQ(outer->size(), 1u);
  for (RelId rel : outer->definitions()[0].query->RelNames()) {
    EXPECT_TRUE(analyzer.base().Contains(rel));
  }
  // And it is dominated by Inner (composition never gains capacity).
  const View* inner = Unwrap(analyzer.GetView("Inner"));
  Engine engine(&analyzer.catalog());
  EXPECT_TRUE(Unwrap(Dominates(engine, *inner, *outer)).dominates);
}

TEST(AnalyzerComposeTest, ComposeViaAnalyzer) {
  Analyzer analyzer;
  Status st = analyzer.Load(R"(
    schema { r(A, B); s(B, C); }
    view Inner { v1 := pi{A,B}(r * s); v2 := pi{B,C}(r * s); }
  )");
  VIEWCAP_ASSERT_OK(st);
  // Build the outer view directly against the inner schema, then compose.
  Catalog& catalog = analyzer.catalog();
  RelId v1 = Unwrap(catalog.FindRelation("v1"));
  RelId v2 = Unwrap(catalog.FindRelation("v2"));
  RelId w = Unwrap(catalog.AddRelation("w", catalog.MakeScheme({"A", "C"})));
  View outer = Unwrap(View::Create(
      &catalog, DbSchema(catalog, {v1, v2}),
      {{w, MustParse(catalog, "pi{A,C}(v1 * v2)")}}, "Outer"));
  const View* inner = Unwrap(analyzer.GetView("Inner"));
  View composed = Unwrap(Compose(*inner, outer));
  EXPECT_EQ(composed.size(), 1u);
  Engine engine(&catalog);
  EXPECT_TRUE(Unwrap(Dominates(engine, *inner, composed)).dominates);
}

}  // namespace
}  // namespace viewcap
