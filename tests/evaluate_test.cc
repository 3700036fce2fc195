// Tests for tableau/evaluate.h: alpha-embeddings and T(alpha).
#include <gtest/gtest.h>

#include "tableau/evaluate.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

using testing::Row;
using testing::Unwrap;

class EvaluateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    r_ = Unwrap(catalog_.AddRelation("r", catalog_.MakeScheme({"A", "B"})));
    s_ = Unwrap(catalog_.AddRelation("s", catalog_.MakeScheme({"B", "C"})));
    a_ = Unwrap(catalog_.FindAttribute("A"));
    b_ = Unwrap(catalog_.FindAttribute("B"));
    c_ = Unwrap(catalog_.FindAttribute("C"));
    alpha_ = std::make_unique<Instantiation>(&catalog_);
  }

  void Fill(RelId rel, const std::vector<std::pair<int, int>>& pairs) {
    const AttrSet& scheme = catalog_.RelationScheme(rel);
    auto it = scheme.begin();
    AttrId x = *it++, y = *it;
    Relation relation(scheme);
    for (auto [v1, v2] : pairs) {
      relation.Insert(Tuple(
          scheme,
          {Symbol::Nondistinguished(x, static_cast<std::uint32_t>(v1)),
           Symbol::Nondistinguished(y, static_cast<std::uint32_t>(v2))}));
    }
    VIEWCAP_ASSERT_OK(alpha_->Set(rel, relation));
  }

  Catalog catalog_;
  AttrSet u_;
  RelId r_ = kInvalidRel, s_ = kInvalidRel;
  AttrId a_ = 0, b_ = 0, c_ = 0;
  std::unique_ptr<Instantiation> alpha_;
};

TEST_F(EvaluateTest, SingleRowActsAsProjection) {
  Fill(r_, {{1, 1}, {2, 2}});
  // Template of pi_A(r).
  Tableau t = Unwrap(Tableau::Create(
      catalog_, u_, {Row(catalog_, u_, "r", {"0", "b9", "c9"})}));
  Relation result = EvaluateTableau(t, *alpha_);
  EXPECT_EQ(result.scheme(), AttrSet{a_});
  EXPECT_EQ(result.size(), 2u);
}

TEST_F(EvaluateTest, JoinTemplateMatchesSharedSymbols) {
  Fill(r_, {{1, 1}, {2, 2}});
  Fill(s_, {{1, 5}, {3, 6}});
  // Template of pi_AC(r |x| s): rows share nondistinguished b1.
  Tableau t = Unwrap(Tableau::Create(
      catalog_, u_,
      {Row(catalog_, u_, "r", {"0", "b1", "c8"}),
       Row(catalog_, u_, "s", {"a8", "b1", "0"})}));
  Relation result = EvaluateTableau(t, *alpha_);
  // Only b=1 joins: (a=1, c=5).
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.tuples()[0].At(a_), Symbol::Nondistinguished(a_, 1));
  EXPECT_EQ(result.tuples()[0].At(c_), Symbol::Nondistinguished(c_, 5));
}

TEST_F(EvaluateTest, EmptyRelationYieldsEmptyResult) {
  Fill(r_, {{1, 1}});
  // s is unset (empty); any template mentioning it returns the empty
  // relation.
  Tableau t = Unwrap(Tableau::Create(
      catalog_, u_,
      {Row(catalog_, u_, "r", {"0", "b1", "c8"}),
       Row(catalog_, u_, "s", {"a8", "b1", "0"})}));
  EXPECT_TRUE(EvaluateTableau(t, *alpha_).empty());
}

TEST_F(EvaluateTest, DistinguishedSymbolsMatchActualConstants) {
  // Instances may contain the distinguished constant 0_A; embeddings can
  // map template symbols onto it.
  Relation relation(catalog_.RelationScheme(r_));
  relation.Insert(Tuple(catalog_.RelationScheme(r_),
                        {Symbol::Distinguished(a_),
                         Symbol::Nondistinguished(b_, 2)}));
  VIEWCAP_ASSERT_OK(alpha_->Set(r_, relation));
  Tableau t = Unwrap(Tableau::Create(
      catalog_, u_, {Row(catalog_, u_, "r", {"0", "0", "c9"})}));
  Relation result = EvaluateTableau(t, *alpha_);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.tuples()[0].At(a_), Symbol::Distinguished(a_));
}

TEST_F(EvaluateTest, RepeatedVariableWithinRowForcesEquality) {
  // A row with the same symbol at A-position... domains are disjoint so
  // within-row repetition is impossible; instead test repetition across
  // rows of the same relation (self-join pattern).
  Fill(r_, {{1, 2}, {2, 3}, {5, 5}});
  // rows: r(0_A, b1), r(b1-as-A?...) -- cross-attr sharing impossible;
  // instead: two r-rows sharing the B symbol: pairs (x,y),(x',y) with
  // equal second component.
  Tableau t = Unwrap(Tableau::Create(
      catalog_, u_,
      {Row(catalog_, u_, "r", {"0", "b1", "c8"}),
       Row(catalog_, u_, "r", {"a2", "b1", "c9"})}));
  Relation result = EvaluateTableau(t, *alpha_);
  // For every tuple (a,b) there is at least itself as partner: all 3 a's.
  EXPECT_EQ(result.size(), 3u);
}

TEST_F(EvaluateTest, CountEmbeddingsCountsAssignments) {
  Fill(r_, {{1, 1}, {2, 1}});
  Fill(s_, {{1, 5}, {1, 6}});
  Tableau t = Unwrap(Tableau::Create(
      catalog_, u_,
      {Row(catalog_, u_, "r", {"0", "b1", "c8"}),
       Row(catalog_, u_, "s", {"a8", "b1", "0"})}));
  // 2 r-tuples x 2 s-tuples, all with b=1: 4 embeddings.
  EXPECT_EQ(CountEmbeddings(t, *alpha_), 4u);
  EXPECT_EQ(EvaluateTableau(t, *alpha_).size(), 4u);
}

TEST_F(EvaluateTest, OutputDeduplicates) {
  Fill(r_, {{1, 1}, {1, 2}});
  // pi_A(r): two embeddings, one output tuple.
  Tableau t = Unwrap(Tableau::Create(
      catalog_, u_, {Row(catalog_, u_, "r", {"0", "b9", "c9"})}));
  EXPECT_EQ(CountEmbeddings(t, *alpha_), 2u);
  EXPECT_EQ(EvaluateTableau(t, *alpha_).size(), 1u);
}

TEST_F(EvaluateTest, BoundedEvaluationSharesOneBudget) {
  Fill(r_, {{1, 1}, {2, 1}});
  Fill(s_, {{1, 5}, {1, 6}});
  Tableau t = Unwrap(Tableau::Create(
      catalog_, u_,
      {Row(catalog_, u_, "r", {"0", "b1", "c8"}),
       Row(catalog_, u_, "s", {"a8", "b1", "0"})}));
  // Four embeddings: a budget of exactly four answers in full and is
  // spent; the same budget then cannot pay for a second evaluation.
  std::size_t budget = 4;
  std::optional<Relation> full = EvaluateTableauBounded(t, *alpha_, &budget);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, EvaluateTableau(t, *alpha_));
  EXPECT_EQ(budget, 0u);
  EXPECT_FALSE(EvaluateTableauBounded(t, *alpha_, &budget).has_value());
  // A budget below the embedding count gives up and is spent.
  budget = 3;
  EXPECT_FALSE(EvaluateTableauBounded(t, *alpha_, &budget).has_value());
  EXPECT_EQ(budget, 0u);
  // Only visited embeddings are charged.
  budget = 10;
  ASSERT_TRUE(EvaluateTableauBounded(t, *alpha_, &budget).has_value());
  EXPECT_EQ(budget, 6u);
}

}  // namespace
}  // namespace viewcap
