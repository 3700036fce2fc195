// Tests for views/capacity.h: query sets, closure membership
// (Theorems 1.5.2, 2.3.2, 2.4.11) and the Section 2.3 worked example.
#include <gtest/gtest.h>

#include "algebra/expand.h"
#include "algebra/parser.h"
#include "algebra/printer.h"
#include "tableau/build.h"
#include "tableau/homomorphism.h"
#include "tests/test_util.h"
#include "views/capacity.h"

namespace viewcap {
namespace {

using testing::EngineFactory;
using testing::MustParse;
using testing::Row;
using testing::Unwrap;

class CapacityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    r_ = Unwrap(catalog_.AddRelation("r", u_));
    base_ = DbSchema(catalog_, {r_});
    w1_ = Unwrap(catalog_.AddRelation("w1", catalog_.MakeScheme({"A", "B"})));
    w2_ = Unwrap(catalog_.AddRelation("w2", catalog_.MakeScheme({"B", "C"})));
    view_ = Unwrap(View::Create(
        &catalog_, base_,
        {{w1_, MustParse(catalog_, "pi{A,B}(r)")},
         {w2_, MustParse(catalog_, "pi{B,C}(r)")}},
        "W"));
  }

  Tableau T(const std::string& text) {
    return MustBuildTableau(catalog_, u_, *MustParse(catalog_, text));
  }

  Catalog catalog_;
  EngineFactory engines_{&catalog_};
  AttrSet u_;
  RelId r_ = kInvalidRel, w1_ = kInvalidRel, w2_ = kInvalidRel;
  DbSchema base_;
  std::optional<View> view_;
};

TEST_F(CapacityTest, DefiningQueriesAreInCapacity) {
  // Theorem 1.5.2 part (ii): F is contained in Cap(V).
  CapacityOracle oracle(&engines_.New(), *view_);
  for (const ViewDefinition& d : view_->definitions()) {
    MembershipResult m = Unwrap(oracle.Contains(d.tableau));
    EXPECT_TRUE(m.member);
    ASSERT_NE(m.witness, nullptr);
    // The witness expands to the defining query's mapping.
    ExprPtr expanded =
        Unwrap(Expand(catalog_, m.witness, view_->AsDefinitions()));
    EXPECT_TRUE(EquivalentTableaux(catalog_,
                                   MustBuildTableau(catalog_, u_, *expanded),
                                   d.tableau));
  }
}

TEST_F(CapacityTest, CapacityClosedUnderProjectionAndJoin) {
  // Theorem 1.5.2 part (i), spot-checked: projections and joins of members
  // are members.
  CapacityOracle oracle(&engines_.New(), *view_);
  const char* derived[] = {
      "pi{A}(pi{A,B}(r))",
      "pi{B}(pi{B,C}(r))",
      "pi{A,B}(r) * pi{B,C}(r)",
      "pi{A,C}(pi{A,B}(r) * pi{B,C}(r))",
      "pi{A}(pi{A,B}(r)) * pi{C}(pi{B,C}(r))",
  };
  for (const char* text : derived) {
    MembershipResult m = Unwrap(oracle.Contains(MustParse(catalog_, text)));
    EXPECT_TRUE(m.member) << text;
  }
}

TEST_F(CapacityTest, NonMembersRejected) {
  CapacityOracle oracle(&engines_.New(), *view_);
  // The full relation r cannot be recovered from its two projections.
  const char* non_members[] = {
      "r",
      "pi{A,C}(r)",           // The A-C correlation was lost.
      "pi{A,B,C}(r * r)",
  };
  for (const char* text : non_members) {
    MembershipResult m = Unwrap(oracle.Contains(MustParse(catalog_, text)));
    EXPECT_FALSE(m.member) << text;
    EXPECT_FALSE(m.budget_exhausted) << text;
    // The canonical-rewriting refutation decides each without enumerating.
    EXPECT_EQ(m.candidates_tried, 0u) << text;
  }
}

TEST_F(CapacityTest, WitnessExpansionIsEquivalentToQuery) {
  // Theorem 2.3.2: the witness is a construction; its expansion through
  // the defining queries realizes the query's mapping.
  CapacityOracle oracle(&engines_.New(), *view_);
  ExprPtr query = MustParse(catalog_, "pi{A,C}(pi{A,B}(r) * pi{B,C}(r))");
  MembershipResult m = Unwrap(oracle.Contains(query));
  ASSERT_TRUE(m.member);
  ASSERT_NE(m.witness, nullptr);
  ExprPtr expanded =
      Unwrap(Expand(catalog_, m.witness, view_->AsDefinitions()));
  EXPECT_TRUE(EquivalentTableaux(catalog_,
                                 MustBuildTableau(catalog_, u_, *expanded),
                                 MustBuildTableau(catalog_, u_, *query)));
}

TEST_F(CapacityTest, UniverseMismatchIsIllFormed) {
  CapacityOracle oracle(&engines_.New(), *view_);
  // A perfectly valid template, but over the universe {A,B} instead of the
  // query set's {A,B,C} (w1 has type {A,B}, so it fits the small universe).
  AttrSet small = catalog_.MakeScheme({"A", "B"});
  Tableau wrong =
      MustBuildTableau(catalog_, small, *MustParse(catalog_, "w1"));
  EXPECT_EQ(oracle.Contains(wrong).status().code(), StatusCode::kIllFormed);
}

TEST_F(CapacityTest, BudgetExhaustionIsReported) {
  SearchLimits limits;
  limits.max_candidates = 1;  // Absurdly small.
  CapacityOracle oracle(&engines_.New(), *view_, limits);
  // A member only the enumeration finds (it needs both projections inside
  // the join): the canonical witness fails, the refutation cannot refute
  // it, and the capped enumeration gives up after one candidate.
  MembershipResult m =
      Unwrap(oracle.Contains(MustParse(catalog_, "pi{A}(r) * pi{C}(r)")));
  EXPECT_FALSE(m.member);
  EXPECT_TRUE(m.budget_exhausted);
  EXPECT_EQ(m.candidates_tried, 1u);
}

TEST_F(CapacityTest, LeafCappedNegativeIsInconclusive) {
  // The member above has 2 leaves, one per row of the reduced query. A
  // max_leaves of 1 holds the enumeration below the Lemma 2.4.8 bound:
  // the whole 1-leaf space runs dry, and the negative is inconclusive.
  SearchLimits limits;
  limits.max_leaves = 1;
  CapacityOracle oracle(&engines_.New(), *view_, limits);
  MembershipResult m =
      Unwrap(oracle.Contains(MustParse(catalog_, "pi{A}(r) * pi{C}(r)")));
  EXPECT_FALSE(m.member);
  EXPECT_TRUE(m.budget_exhausted);
  EXPECT_EQ(m.leaf_budget, 1u);
  EXPECT_EQ(m.candidates_tried, 6u);
  // Within the bound the same enumeration finds the witness.
  CapacityOracle full(&engines_.New(), *view_);
  EXPECT_TRUE(Unwrap(full.Contains(MustParse(catalog_, "pi{A}(r) * pi{C}(r)")))
                  .member);
}

TEST_F(CapacityTest, MembershipRoutesAreCounted) {
  Engine& engine = engines_.New();
  CapacityOracle oracle(&engine, *view_);
  // One verdict per route: the canonical witness w1, the refutation of r
  // (its projections lose the A-C correlation), and the enumeration for
  // the cross product.
  EXPECT_TRUE(
      Unwrap(oracle.Contains(MustParse(catalog_, "pi{A,B}(r)"))).member);
  EXPECT_FALSE(Unwrap(oracle.Contains(MustParse(catalog_, "r"))).member);
  EXPECT_TRUE(Unwrap(oracle.Contains(MustParse(catalog_, "pi{A}(r) * pi{C}(r)")))
                  .member);
  EXPECT_EQ(engine.StatsSnapshot().membership,
            (MembershipCounters{1, 1, 1}));
  // A repeat is a verdict-cache hit, not a live search.
  Unwrap(oracle.Contains(T("r")));
  EXPECT_EQ(engine.StatsSnapshot().membership,
            (MembershipCounters{1, 1, 1}));
}

TEST_F(CapacityTest, LeafBudgetFollowsReducedQuerySize) {
  CapacityOracle oracle(&engines_.New(), *view_);
  MembershipResult m =
      Unwrap(oracle.Contains(MustParse(catalog_, "pi{A,B}(r)")));
  EXPECT_EQ(m.leaf_budget, 1u);
  SearchLimits slack;
  slack.extra_leaves = 2;
  CapacityOracle oracle2(&engines_.New(), *view_, slack);
  MembershipResult m2 =
      Unwrap(oracle2.Contains(MustParse(catalog_, "pi{A,B}(r)")));
  EXPECT_EQ(m2.leaf_budget, 3u);
}

TEST_F(CapacityTest, QuerySetValidation) {
  // Handle type must equal the query's TRS.
  Tableau q = T("pi{A,B}(r)");
  Result<QuerySet> bad = QuerySet::Create(
      &catalog_, u_, {QuerySet::Member{w2_, q}});  // R(w2) = {B,C}.
  EXPECT_EQ(bad.status().code(), StatusCode::kIllFormed);
  Result<QuerySet> good =
      QuerySet::Create(&catalog_, u_, {QuerySet::Member{w1_, q}});
  EXPECT_TRUE(good.ok());
}

TEST_F(CapacityTest, QuerySetFromTableauxMintsHandles) {
  QuerySet set = Unwrap(QuerySet::FromTableaux(
      &catalog_, u_, {T("pi{A,B}(r)"), T("pi{B,C}(r)")}));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_NE(set.members()[0].handle, set.members()[1].handle);
  EXPECT_EQ(catalog_.RelationScheme(set.members()[0].handle),
            catalog_.MakeScheme({"A", "B"}));
}

TEST_F(CapacityTest, QuerySetWithoutAndWith) {
  QuerySet set = QuerySet::FromView(*view_);
  EXPECT_EQ(set.Without(0).size(), 1u);
  EXPECT_EQ(set.Without(0).members()[0].handle, w2_);
  QuerySet bigger = set.With({QuerySet::Member{
      catalog_.MintRelation("__x", catalog_.MakeScheme({"A"})),
      T("pi{A}(r)")}});
  EXPECT_EQ(bigger.size(), 3u);
}

TEST_F(CapacityTest, EnumerateCapacityListsDistinctMembers) {
  CapacityOracle oracle(&engines_.New(), *view_);
  std::vector<CapacityOracle::CapacityEntry> one_leaf =
      Unwrap(oracle.EnumerateCapacity(1, 100));
  // w1, w2 and their single-attribute projections — with pi_B(w1) and
  // pi_B(w2) collapsing into one class (both are pi_B(r)): 5 members.
  EXPECT_EQ(one_leaf.size(), 5u);
  for (std::size_t i = 0; i < one_leaf.size(); ++i) {
    for (std::size_t j = i + 1; j < one_leaf.size(); ++j) {
      EXPECT_FALSE(EquivalentTableaux(catalog_, one_leaf[i].query,
                                      one_leaf[j].query));
    }
  }
  // Every entry's witness expands to its reduced template's mapping.
  for (const auto& entry : one_leaf) {
    ExprPtr expanded =
        Unwrap(Expand(catalog_, entry.witness, view_->AsDefinitions()));
    EXPECT_TRUE(EquivalentTableaux(
        catalog_, MustBuildTableau(catalog_, u_, *expanded), entry.query));
  }
  // Larger budgets enumerate supersets.
  std::vector<CapacityOracle::CapacityEntry> two_leaves =
      Unwrap(oracle.EnumerateCapacity(2, 100));
  EXPECT_GT(two_leaves.size(), one_leaf.size());
}

TEST_F(CapacityTest, EnumerateCapacityHonorsEntryCap) {
  CapacityOracle oracle(&engines_.New(), *view_);
  std::vector<CapacityOracle::CapacityEntry> capped =
      Unwrap(oracle.EnumerateCapacity(2, 3));
  EXPECT_EQ(capped.size(), 3u);
}

// The Section 2.3 worked example: Q (three-row template over eta1/eta4 of
// the Figure 1 catalog) has a construction from {S1, S2}.
TEST(Section23Test, ConstructionExample) {
  Catalog catalog;
  AttrSet u = catalog.MakeScheme({"A", "B", "C"});
  AttrSet ab = catalog.MakeScheme({"A", "B"});
  Unwrap(catalog.AddRelation("eta3", u));
  Unwrap(catalog.AddRelation("eta4", u));
  // S1, S2 as in Figure 1.
  Tableau s1 = Unwrap(Tableau::Create(
      catalog, u,
      {Row(catalog, u, "eta3", {"a3", "0", "c3"}),
       Row(catalog, u, "eta3", {"0", "b3", "c3"})}));
  Tableau s2 = Unwrap(Tableau::Create(
      catalog, u,
      {Row(catalog, u, "eta4", {"0", "0", "c4"}),
       Row(catalog, u, "eta4", {"a4", "b4", "0"})}));
  // Q = {(0A,b1,c1):eta3, (a1,0B,c2):eta4, (a2,b2,0C):eta4}: equivalent to
  // pi_A(eta3) |x| pi_B(eta4) |x| pi_C(eta4), which Section 2.3 shows is
  // T -> beta for the Figure 1 substitution.
  Tableau q = Unwrap(Tableau::Create(
      catalog, u,
      {Row(catalog, u, "eta3", {"0", "b1", "c1"}),
       Row(catalog, u, "eta4", {"a1", "0", "c2"}),
       Row(catalog, u, "eta4", {"a2", "b2", "0"})}));

  // Handles for the query set {S1, S2}.
  RelId h1 = Unwrap(catalog.AddRelation("q_s1", ab));
  RelId h2 = Unwrap(catalog.AddRelation("q_s2", u));
  QuerySet set = Unwrap(QuerySet::Create(
      &catalog, u, {QuerySet::Member{h1, s1}, QuerySet::Member{h2, s2}}));
  Engine engine(&catalog);
  CapacityOracle oracle(&engine, set);
  MembershipResult m = Unwrap(oracle.Contains(q));
  EXPECT_TRUE(m.member);
  ASSERT_NE(m.witness, nullptr);

  // And the exhibited-construction variant finds at least one.
  std::vector<ExhibitedConstruction> constructions =
      Unwrap(oracle.FindConstructions(q, 4));
  ASSERT_FALSE(constructions.empty());
  for (const ExhibitedConstruction& c : constructions) {
    EXPECT_TRUE(EquivalentTableaux(catalog, c.substitution.result, q));
    // The exhibited hom maps Q's rows into the substitution.
    std::vector<std::size_t> image =
        RowImage(catalog, q, c.substitution.result, c.hom);
    EXPECT_EQ(image.size(), q.size());
  }
}

}  // namespace
}  // namespace viewcap
