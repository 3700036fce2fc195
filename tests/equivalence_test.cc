// Tests for views/equivalence.h: Example 3.1.5, Lemma 1.5.4,
// Theorems 1.5.5 and 2.4.12.
#include <gtest/gtest.h>

#include "algebra/expand.h"
#include "algebra/parser.h"
#include "tableau/build.h"
#include "tableau/homomorphism.h"
#include "tests/test_util.h"
#include "views/equivalence.h"

namespace viewcap {
namespace {

using testing::EngineFactory;
using testing::MustParse;
using testing::Unwrap;

// Example 3.1.5: D = {r}, S1 = pi_AB(r), S2 = pi_BC(r), S = S1 |x| S2;
// V = {(S, l)} and W = {(S1, l1), (S2, l2)} are equivalent nonredundant
// views of different sizes.
class Example315Test : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    r_ = Unwrap(catalog_.AddRelation("r", u_));
    base_ = DbSchema(catalog_, {r_});
    RelId l = Unwrap(catalog_.AddRelation("l", u_));
    RelId l1 = Unwrap(catalog_.AddRelation("l1", catalog_.MakeScheme({"A", "B"})));
    RelId l2 = Unwrap(catalog_.AddRelation("l2", catalog_.MakeScheme({"B", "C"})));
    v_ = Unwrap(View::Create(
        &catalog_, base_,
        {{l, MustParse(catalog_, "pi{A,B}(r) * pi{B,C}(r)")}}, "V"));
    w_ = Unwrap(View::Create(&catalog_, base_,
                             {{l1, MustParse(catalog_, "pi{A,B}(r)")},
                              {l2, MustParse(catalog_, "pi{B,C}(r)")}},
                             "W"));
  }

  Catalog catalog_;
  EngineFactory engines_{&catalog_};
  AttrSet u_;
  RelId r_ = kInvalidRel;
  DbSchema base_;
  std::optional<View> v_, w_;
};

TEST_F(Example315Test, ViewsAreEquivalent) {
  EquivalenceResult result = Unwrap(AreEquivalent(engines_.New(), *v_, *w_));
  EXPECT_TRUE(result.equivalent);
  EXPECT_FALSE(result.inconclusive);
  EXPECT_TRUE(result.v_over_w.dominates);
  EXPECT_TRUE(result.w_over_v.dominates);
}

TEST_F(Example315Test, WitnessesAnswerTheOtherViewsQueries) {
  EquivalenceResult result = Unwrap(AreEquivalent(engines_.New(), *v_, *w_));
  // Every W-definition has a V-schema expression answering it, whose
  // expansion through V realizes the same mapping.
  for (std::size_t j = 0; j < w_->size(); ++j) {
    ASSERT_NE(result.v_over_w.witnesses[j], nullptr);
    ExprPtr expanded = Unwrap(Expand(catalog_, result.v_over_w.witnesses[j],
                                     v_->AsDefinitions()));
    EXPECT_TRUE(EquivalentTableaux(
        catalog_, MustBuildTableau(catalog_, u_, *expanded),
        w_->definitions()[j].tableau));
  }
}

TEST_F(Example315Test, EquivalentViewsMayDifferInSize) {
  EXPECT_EQ(v_->size(), 1u);
  EXPECT_EQ(w_->size(), 2u);
  EXPECT_TRUE(Unwrap(AreEquivalent(engines_.New(), *v_, *w_)).equivalent);
}

TEST_F(Example315Test, FullRelationViewStrictlyDominates) {
  RelId full = Unwrap(catalog_.AddRelation("full", u_));
  View big = Unwrap(View::Create(&catalog_, base_,
                                 {{full, MustParse(catalog_, "r")}}, "Big"));
  // Cap(W) is contained in Cap(Big) but not conversely.
  DominanceResult big_over_w = Unwrap(Dominates(engines_.New(), big, *w_));
  EXPECT_TRUE(big_over_w.dominates);
  DominanceResult w_over_big = Unwrap(Dominates(engines_.New(), *w_, big));
  EXPECT_FALSE(w_over_big.dominates);
  EXPECT_EQ(w_over_big.missing.size(), 1u);
  EquivalenceResult eq = Unwrap(AreEquivalent(engines_.New(), big, *w_));
  EXPECT_FALSE(eq.equivalent);
}

TEST_F(Example315Test, EquivalenceIsReflexiveAndSymmetric) {
  EXPECT_TRUE(Unwrap(AreEquivalent(engines_.New(), *v_, *v_)).equivalent);
  EXPECT_TRUE(Unwrap(AreEquivalent(engines_.New(), *w_, *w_)).equivalent);
  EXPECT_EQ(Unwrap(AreEquivalent(engines_.New(), *v_, *w_)).equivalent,
            Unwrap(AreEquivalent(engines_.New(), *w_, *v_)).equivalent);
}

TEST_F(Example315Test, DominanceRequiresSharedUniverse) {
  Catalog other;
  RelId other_r =
      Unwrap(other.AddRelation("r", other.MakeScheme({"X", "Y"})));
  DbSchema other_base(other, {other_r});
  RelId ov = Unwrap(other.AddRelation("ov", other.MakeScheme({"X", "Y"})));
  View foreign = Unwrap(
      View::Create(&other, other_base, {{ov, MustParse(other, "r")}}));
  EXPECT_EQ(Dominates(engines_.New(), *v_, foreign).status().code(),
            StatusCode::kIllFormed);
}

// Transitivity check on a chain of three pairwise-equivalent views.
TEST_F(Example315Test, EquivalenceIsTransitiveOnChain) {
  RelId m1 = Unwrap(catalog_.AddRelation("m1", catalog_.MakeScheme({"A", "B"})));
  RelId m2 = Unwrap(catalog_.AddRelation("m2", catalog_.MakeScheme({"B", "C"})));
  RelId m3 = Unwrap(catalog_.AddRelation("m3", u_));
  // X: redundant-looking mixture, still the same capacity.
  View x = Unwrap(View::Create(
      &catalog_, base_,
      {{m1, MustParse(catalog_, "pi{A,B}(r)")},
       {m2, MustParse(catalog_, "pi{B,C}(r)")},
       {m3, MustParse(catalog_, "pi{A,B}(r) * pi{B,C}(r)")}},
      "X"));
  EXPECT_TRUE(Unwrap(AreEquivalent(engines_.New(), *v_, *w_)).equivalent);
  EXPECT_TRUE(Unwrap(AreEquivalent(engines_.New(), *w_, x)).equivalent);
  EXPECT_TRUE(Unwrap(AreEquivalent(engines_.New(), *v_, x)).equivalent);
}

// Views over different base relations are never equivalent when a defining
// query mentions relations the other cannot reach (RN preservation).
TEST(EquivalenceTest, DistinctRelationNamesSeparateCapacities) {
  Catalog catalog;
  RelId r = Unwrap(catalog.AddRelation("r", catalog.MakeScheme({"A", "B"})));
  RelId s = Unwrap(catalog.AddRelation("s", catalog.MakeScheme({"A", "B"})));
  DbSchema base(catalog, {r, s});
  RelId vr = Unwrap(catalog.AddRelation("vr", catalog.MakeScheme({"A", "B"})));
  RelId vs = Unwrap(catalog.AddRelation("vs", catalog.MakeScheme({"A", "B"})));
  View view_r =
      Unwrap(View::Create(&catalog, base, {{vr, MustParse(catalog, "r")}}));
  View view_s =
      Unwrap(View::Create(&catalog, base, {{vs, MustParse(catalog, "s")}}));
  Engine engine(&catalog);
  EquivalenceResult eq = Unwrap(AreEquivalent(engine, view_r, view_s));
  EXPECT_FALSE(eq.equivalent);
  EXPECT_FALSE(eq.v_over_w.dominates);
  EXPECT_FALSE(eq.w_over_v.dominates);
}

}  // namespace
}  // namespace viewcap
