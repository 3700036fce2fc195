// Tests for views/redundancy.h: Example 3.1.1, Theorems 3.1.4 and 3.1.7.
#include <gtest/gtest.h>

#include "algebra/parser.h"
#include "tests/test_util.h"
#include "views/equivalence.h"
#include "views/redundancy.h"

namespace viewcap {
namespace {

using testing::EngineFactory;
using testing::MustParse;
using testing::Unwrap;

// Example 3.1.1: D = {r}, S1 = pi_AB(r), S2 = pi_BC(r), S = S1 |x| S2.
// S is redundant in {S, S1, S2}; {S1, S2} is nonredundant.
class Example311Test : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    r_ = Unwrap(catalog_.AddRelation("r", u_));
    base_ = DbSchema(catalog_, {r_});
    RelId hs = Unwrap(catalog_.AddRelation("h_s", u_));
    RelId h1 = Unwrap(catalog_.AddRelation("h_s1", catalog_.MakeScheme({"A", "B"})));
    RelId h2 = Unwrap(catalog_.AddRelation("h_s2", catalog_.MakeScheme({"B", "C"})));
    view_ = Unwrap(View::Create(
        &catalog_, base_,
        {{hs, MustParse(catalog_, "pi{A,B}(r) * pi{B,C}(r)")},
         {h1, MustParse(catalog_, "pi{A,B}(r)")},
         {h2, MustParse(catalog_, "pi{B,C}(r)")}},
        "SAll"));
  }

  Catalog catalog_;
  EngineFactory engines_{&catalog_};
  AttrSet u_;
  RelId r_ = kInvalidRel;
  DbSchema base_;
  std::optional<View> view_;
};

TEST_F(Example311Test, JoinIsRedundant) {
  QuerySet set = QuerySet::FromView(*view_);
  RedundancyResult s_result = Unwrap(IsRedundant(engines_.New(), set, 0));
  EXPECT_TRUE(s_result.redundant);
  ASSERT_NE(s_result.membership.witness, nullptr);
  EXPECT_EQ(s_result.membership.witness->LeafCount(), 2u);  // h_s1 * h_s2.

  // The projections are ALSO redundant in the full set (S1 = pi_AB(S),
  // S2 = pi_BC(S)): Example 3.1.1 claims only that {S1, S2} taken alone is
  // nonredundant, which SubsetIsNonredundant checks.
  EXPECT_TRUE(Unwrap(IsRedundant(engines_.New(), set, 1)).redundant);
  EXPECT_TRUE(Unwrap(IsRedundant(engines_.New(), set, 2)).redundant);
}

TEST_F(Example311Test, SubsetIsNonredundant) {
  // {S1, S2} is a nonredundant query set (Proposition 3.1.3 instance).
  QuerySet set = QuerySet::FromView(*view_).Without(0);
  EXPECT_TRUE(Unwrap(IsNonredundantSet(engines_.New(), set)));
}

TEST_F(Example311Test, MakeNonredundantReachesAFixpoint) {
  // Greedy elimination scans in order and drops S (index 0) first; the
  // surviving {S1, S2} is nonredundant. (Dropping a projection first would
  // eventually leave {S} — also a valid nonredundant equivalent; the two
  // outcomes are exactly the views of Example 3.1.5.)
  NonredundantViewResult result =
      Unwrap(MakeNonredundant(engines_.New(), *view_));
  EXPECT_FALSE(result.inconclusive);
  EXPECT_EQ(result.view.size(), 2u);
  // Theorem 3.1.4: the result is equivalent to the input.
  EXPECT_TRUE(
      Unwrap(AreEquivalent(engines_.New(), *view_, result.view)).equivalent);
  // And itself nonredundant.
  EXPECT_TRUE(Unwrap(
      IsNonredundantSet(engines_.New(), QuerySet::FromView(result.view))));
}

TEST_F(Example311Test, SingletonIsNeverRedundant) {
  QuerySet set = QuerySet::FromView(view_->Restrict({0}));
  EXPECT_FALSE(Unwrap(IsRedundant(engines_.New(), set, 0)).redundant);
}

TEST_F(Example311Test, IndexOutOfRangeIsInvalidArgument) {
  QuerySet set = QuerySet::FromView(*view_);
  EXPECT_EQ(IsRedundant(engines_.New(), set, 99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(Example311Test, DuplicateDefinitionsCollapse) {
  RelId d1 = Unwrap(catalog_.AddRelation("dup1", catalog_.MakeScheme({"A", "B"})));
  RelId d2 = Unwrap(catalog_.AddRelation("dup2", catalog_.MakeScheme({"A", "B"})));
  View dup = Unwrap(View::Create(
      &catalog_, base_,
      {{d1, MustParse(catalog_, "pi{A,B}(r)")},
       {d2, MustParse(catalog_, "pi{A,B}(pi{A,B}(r))")}},  // Same mapping.
      "Dup"));
  NonredundantViewResult result = Unwrap(MakeNonredundant(engines_.New(), dup));
  EXPECT_EQ(result.view.size(), 1u);
  EXPECT_TRUE(
      Unwrap(AreEquivalent(engines_.New(), dup, result.view)).equivalent);
}

TEST_F(Example311Test, SizeBoundDominatesNonredundantEquivalents) {
  // Theorem 3.1.7 via Lemma 3.1.6: every nonredundant view equivalent to
  // the input has at most NonredundantSizeBound members. Check against the
  // two known nonredundant equivalents of Example 3.1.5.
  QuerySet set = QuerySet::FromView(*view_);
  std::size_t bound = NonredundantSizeBound(engines_.New(), set);
  EXPECT_GE(bound, 2u);  // {S1, S2} is a nonredundant equivalent.
  // The singleton view {S} is nonredundant and equivalent too.
  EXPECT_GE(bound, 1u);
}

TEST(RedundancyTest, AllThreeProjectionsIndependent) {
  // pi_AB, pi_BC, pi_AC of a ternary relation: pairwise independent, no
  // member derivable from the other two (the lost correlation differs).
  Catalog catalog;
  AttrSet u = catalog.MakeScheme({"A", "B", "C"});
  RelId r = Unwrap(catalog.AddRelation("r", u));
  DbSchema base(catalog, {r});
  RelId h1 = Unwrap(catalog.AddRelation("p_ab", catalog.MakeScheme({"A", "B"})));
  RelId h2 = Unwrap(catalog.AddRelation("p_bc", catalog.MakeScheme({"B", "C"})));
  RelId h3 = Unwrap(catalog.AddRelation("p_ac", catalog.MakeScheme({"A", "C"})));
  View view = Unwrap(View::Create(&catalog, base,
                                  {{h1, MustParse(catalog, "pi{A,B}(r)")},
                                   {h2, MustParse(catalog, "pi{B,C}(r)")},
                                   {h3, MustParse(catalog, "pi{A,C}(r)")}},
                                  "P3"));
  EngineFactory engines(&catalog);
  EXPECT_TRUE(
      Unwrap(IsNonredundantSet(engines.New(), QuerySet::FromView(view))));
  NonredundantViewResult result =
      Unwrap(MakeNonredundant(engines.New(), view));
  EXPECT_EQ(result.view.size(), 3u);
}

}  // namespace
}  // namespace viewcap
