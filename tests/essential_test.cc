// Tests for views/components.h and views/essential.h: Figure 2 and
// Examples 3.2.1/3.2.2 reproduced, plus the Corollary 3.3.6 certificate.
#include <gtest/gtest.h>

#include "algebra/parser.h"
#include "tableau/build.h"
#include "tableau/homomorphism.h"
#include "tableau/substitution.h"
#include "tests/test_util.h"
#include "views/essential.h"
#include "views/redundancy.h"

namespace viewcap {
namespace {

using testing::EngineFactory;
using testing::MustParse;
using testing::Row;
using testing::Unwrap;

// The Figure 2 setting. U = {A,B,C}; eta1:AB, eta2:ABC are the database
// schema; lambda1:AB, lambda2:ABC, lambda3:ABC are the construction-level
// names; B = {S, T} with
//   S = { sigma1 = (0A,0B,c1):eta1 }
//   T = { tau1 = (0A,b1,c2):eta1, tau2 = (a1,b1,0C):eta2,
//         tau3 = (a2,0B,0C):eta2 }
//   E = { eps1 = (0A,b2,c3):lambda1, eps2 = (a3,b2,0C):lambda2,
//         eps3 = (a4,0B,0C):lambda3 }
//   beta(lambda1) = S, beta(lambda2) = beta(lambda3) = T.
class Figure2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    ab_ = catalog_.MakeScheme({"A", "B"});
    eta1_ = Unwrap(catalog_.AddRelation("eta1", ab_));
    eta2_ = Unwrap(catalog_.AddRelation("eta2", u_));
    lambda1_ = Unwrap(catalog_.AddRelation("lambda1", ab_));
    lambda2_ = Unwrap(catalog_.AddRelation("lambda2", u_));
    lambda3_ = Unwrap(catalog_.AddRelation("lambda3", u_));

    s_ = Unwrap(Tableau::Create(
        catalog_, u_, {Row(catalog_, u_, "eta1", {"0", "0", "c1"})}));
    t_ = Unwrap(Tableau::Create(
        catalog_, u_,
        {Row(catalog_, u_, "eta1", {"0", "b1", "c2"}),
         Row(catalog_, u_, "eta2", {"a1", "b1", "0"}),
         Row(catalog_, u_, "eta2", {"a2", "0", "0"})}));
    e_ = Unwrap(Tableau::Create(
        catalog_, u_,
        {Row(catalog_, u_, "lambda1", {"0", "b2", "c3"}),
         Row(catalog_, u_, "lambda2", {"a3", "b2", "0"}),
         Row(catalog_, u_, "lambda3", {"a4", "0", "0"})}));
    beta_.emplace(lambda1_, *s_);
    beta_.emplace(lambda2_, *t_);
    beta_.emplace(lambda3_, *t_);

    // Row indices in T's sorted order: tau1 < tau2 < tau3.
    tau1_ = 0;
    tau2_ = 1;
    tau3_ = 2;
  }

  // Builds the Figure 2 exhibited construction (E -> beta, f).
  ExhibitedConstruction MakeConstruction() {
    SymbolPool pool;
    SubstitutionOutcome outcome =
        Unwrap(Substitute(catalog_, *e_, beta_, pool));
    // E -> beta realizes T's mapping (it is a construction of T).
    EXPECT_TRUE(EquivalentTableaux(catalog_, outcome.result, *t_));
    std::optional<SymbolMap> hom =
        FindHomomorphism(catalog_, *t_, outcome.result);
    EXPECT_TRUE(hom.has_value());
    return ExhibitedConstruction{nullptr, *e_, beta_, std::move(outcome),
                                 std::move(*hom)};
  }

  // Query-set form of B = {S, T} for the oracle-driven classifications.
  QuerySet MakeQuerySet() {
    RelId hs = catalog_.MintRelation("h_s", ab_);
    RelId ht = catalog_.MintRelation("h_t", u_);
    return Unwrap(QuerySet::Create(
        &catalog_, u_,
        {QuerySet::Member{hs, *s_}, QuerySet::Member{ht, *t_}}));
  }

  Catalog catalog_;
  EngineFactory engines_{&catalog_};
  AttrSet u_, ab_;
  RelId eta1_ = kInvalidRel, eta2_ = kInvalidRel;
  RelId lambda1_ = kInvalidRel, lambda2_ = kInvalidRel,
        lambda3_ = kInvalidRel;
  std::optional<Tableau> s_, t_, e_;
  TemplateAssignment beta_;
  std::size_t tau1_ = 0, tau2_ = 0, tau3_ = 0;
};

TEST_F(Figure2Test, ConnectedComponents) {
  // Example 3.2.1 coda: {tau1, tau2} (linked by b1) and {tau3}.
  std::vector<std::vector<std::size_t>> components = ConnectedComponents(*t_);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], (std::vector<std::size_t>{tau1_, tau2_}));
  EXPECT_EQ(components[1], (std::vector<std::size_t>{tau3_}));
  EXPECT_EQ(ComponentTrs(*t_, components[0]),
            catalog_.MakeScheme({"A", "C"}));
  EXPECT_EQ(ComponentTrs(*t_, components[1]),
            catalog_.MakeScheme({"B", "C"}));
}

TEST_F(Figure2Test, SubstitutionHasSevenRows) {
  ExhibitedConstruction c = MakeConstruction();
  EXPECT_EQ(c.substitution.result.size(), 7u);  // 1 + 3 + 3 (Figure 2d).
}

TEST_F(Figure2Test, ImmediateDescendants) {
  // Example 3.2.1: tau1 has no immediate descendant (its child sigma1 is a
  // non-T-block child); the immediate descendant of tau2 is tau3; tau3's
  // is tau3.
  ExhibitedConstruction c = MakeConstruction();
  DescendantAnalysis analysis = AnalyzeDescendants(*t_, *t_, c);
  EXPECT_FALSE(analysis.immediate_descendant[tau1_].has_value());
  ASSERT_TRUE(analysis.immediate_descendant[tau2_].has_value());
  EXPECT_EQ(*analysis.immediate_descendant[tau2_], tau3_);
  ASSERT_TRUE(analysis.immediate_descendant[tau3_].has_value());
  EXPECT_EQ(*analysis.immediate_descendant[tau3_], tau3_);
}

TEST_F(Figure2Test, LineagesAndSelfDescendence) {
  // "The lineage of tau1 is null while the lineage of tau2 and tau3 is
  //  tau3, tau3, ...; clearly tau3 is self-descendent."
  ExhibitedConstruction c = MakeConstruction();
  DescendantAnalysis analysis = AnalyzeDescendants(*t_, *t_, c);
  EXPECT_TRUE(Lineage(analysis, tau1_).empty());
  std::vector<std::size_t> l2 = Lineage(analysis, tau2_);
  ASSERT_FALSE(l2.empty());
  EXPECT_EQ(l2.front(), tau3_);
  EXPECT_FALSE(IsSelfDescendent(analysis, tau1_));
  EXPECT_FALSE(IsSelfDescendent(analysis, tau2_));
  EXPECT_TRUE(IsSelfDescendent(analysis, tau3_));
}

TEST_F(Figure2Test, Tau3IsEssentialByUniqueness) {
  // Example 3.2.2: tau3 is the only tagged tuple in B containing both 0_B
  // and 0_C, hence essential.
  QuerySet set = MakeQuerySet();
  EssentialResult result =
      Unwrap(ClassifyEssential(&catalog_, set, /*member=*/1, tau3_));
  EXPECT_EQ(result.verdict, EssentialVerdict::kEssential);
}

TEST_F(Figure2Test, Tau1AndTau2AreNotEssential) {
  // The Figure 2 construction itself witnesses non-self-descendence for
  // tau1 and tau2, so neither is essential (Proposition 3.2.5). The
  // bounded refutation search must find such a construction.
  QuerySet set = MakeQuerySet();
  EssentialResult r1 =
      Unwrap(ClassifyEssential(&catalog_, set, 1, tau1_, SearchLimits{},
                               /*max_constructions=*/128));
  EXPECT_EQ(r1.verdict, EssentialVerdict::kNotEssential) << r1.reason;
  EssentialResult r2 =
      Unwrap(ClassifyEssential(&catalog_, set, 1, tau2_, SearchLimits{},
                               /*max_constructions=*/128));
  EXPECT_EQ(r2.verdict, EssentialVerdict::kNotEssential) << r2.reason;
}

TEST_F(Figure2Test, EssentialComponentCertifiesNonredundancy) {
  // {tau3} is an essential connected component of T; Corollary 3.2.6 then
  // gives nonredundancy of T in B, which the oracle confirms directly.
  QuerySet set = MakeQuerySet();
  std::optional<std::vector<std::size_t>> component =
      Unwrap(FindEssentialComponent(&catalog_, set, 1, SearchLimits{}, 128));
  ASSERT_TRUE(component.has_value());
  EXPECT_EQ(*component, (std::vector<std::size_t>{tau3_}));
  EXPECT_FALSE(Unwrap(IsRedundant(engines_.New(), set, 1)).redundant);
}

TEST_F(Figure2Test, SigmaIsEssentialSoSIsNonredundant) {
  QuerySet set = MakeQuerySet();
  EssentialResult r =
      Unwrap(ClassifyEssential(&catalog_, set, /*member=*/0, 0));
  EXPECT_EQ(r.verdict, EssentialVerdict::kEssential);
  EXPECT_FALSE(Unwrap(IsRedundant(engines_.New(), set, 0)).redundant);
}

TEST_F(Figure2Test, TrivialConstructionKeepsEverythingSelfDescendent) {
  // The identity construction {(t, handle)} -> beta routes every row of T
  // through itself: all rows self-descendent.
  RelId handle = catalog_.MintRelation("h_id", u_);
  Tuple leaf_tuple = Tuple::AllDistinguished(u_);
  Tableau leaf = Unwrap(
      Tableau::Create(catalog_, u_, {TaggedTuple{handle, leaf_tuple}}));
  TemplateAssignment beta{{handle, *t_}};
  SymbolPool pool;
  SubstitutionOutcome outcome =
      Unwrap(Substitute(catalog_, leaf, beta, pool));
  ASSERT_TRUE(EquivalentTableaux(catalog_, outcome.result, *t_));
  std::optional<SymbolMap> hom =
      FindHomomorphism(catalog_, *t_, outcome.result);
  ASSERT_TRUE(hom.has_value());
  ExhibitedConstruction c{nullptr, leaf, beta, std::move(outcome),
                          std::move(*hom)};
  DescendantAnalysis analysis = AnalyzeDescendants(*t_, *t_, c);
  for (std::size_t i = 0; i < t_->size(); ++i) {
    EXPECT_TRUE(IsSelfDescendent(analysis, i)) << "row " << i;
  }
}

TEST_F(Figure2Test, Theorem339EssentialDescendantsConstruction) {
  // Theorem 3.3.9: for the nonredundant set B = {S, T} and the query
  // Q = T, there is an exhibited construction under which every immediate
  // descendant (w.r.t. T) of a row of Q is an essential tagged tuple of T
  // — here, lands in {tau3}.
  QuerySet set = MakeQuerySet();
  CapacityOracle oracle(&engines_.New(), set);
  std::vector<ExhibitedConstruction> constructions =
      Unwrap(oracle.FindConstructions(*t_, 64));
  ASSERT_FALSE(constructions.empty());
  bool found = false;
  for (const ExhibitedConstruction& c : constructions) {
    DescendantAnalysis analysis = AnalyzeDescendants(*t_, *t_, c);
    bool all_essential = true;
    for (const std::optional<std::size_t>& descendant :
         analysis.immediate_descendant) {
      if (descendant.has_value() && *descendant != tau3_) {
        all_essential = false;
        break;
      }
    }
    if (all_essential) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(Figure2Test, ComponentsOfDisconnectedTemplate) {
  // A join of fully projected atoms has one component per row.
  Tableau t = MustBuildTableau(
      catalog_, u_,
      *MustParse(catalog_, "pi{A}(eta1) * pi{B}(eta2) * pi{C}(eta2)"));
  EXPECT_EQ(ConnectedComponents(t).size(), 3u);
}

TEST_F(Figure2Test, ErrorsOnBadIndices) {
  QuerySet set = MakeQuerySet();
  EXPECT_FALSE(ClassifyEssential(&catalog_, set, 9, 0).ok());
  EXPECT_FALSE(ClassifyEssential(&catalog_, set, 1, 9).ok());
  EXPECT_FALSE(FindEssentialComponent(&catalog_, set, 9).ok());
}

}  // namespace
}  // namespace viewcap
