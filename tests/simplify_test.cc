// Tests for views/simplify.h: Section 4's normal form. Includes the
// reconstruction of the Section 4.1 worked example (see EXPERIMENTS.md for
// the provenance discussion) and the Theorem 4.2.x uniqueness/maximality
// results.
#include <gtest/gtest.h>

#include "algebra/parser.h"
#include "tableau/build.h"
#include "tableau/homomorphism.h"
#include "tests/test_util.h"
#include "views/equivalence.h"
#include "views/redundancy.h"
#include "views/simplify.h"

namespace viewcap {
namespace {

using testing::EngineFactory;
using testing::MustParse;
using testing::Unwrap;

// The Section 4.1 scenario, reconstructed: base e(A,B), f(B,C), g(A);
//   S := e * f               -- traditionally decomposable
//   T := pi{A,C}(e * f) * g  -- NOT traditionally decomposable, but
//                               T == pi{A,C}(S) * pi{A}(T), so T is not
//                               simple in the presence of S.
class Section41Test : public ::testing::Test {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    e_ = Unwrap(catalog_.AddRelation("e", catalog_.MakeScheme({"A", "B"})));
    f_ = Unwrap(catalog_.AddRelation("f", catalog_.MakeScheme({"B", "C"})));
    g_ = Unwrap(catalog_.AddRelation("g", catalog_.MakeScheme({"A"})));
    base_ = DbSchema(catalog_, {e_, f_, g_});
    RelId hs = Unwrap(catalog_.AddRelation("hS", u_));
    RelId ht = Unwrap(catalog_.AddRelation("hT", catalog_.MakeScheme({"A", "C"})));
    view_ = Unwrap(View::Create(
        &catalog_, base_,
        {{hs, MustParse(catalog_, "e * f")},
         {ht, MustParse(catalog_, "pi{A,C}(e * f) * g")}},
        "VST"));
  }

  Tableau T(const std::string& text) {
    return MustBuildTableau(catalog_, u_, *MustParse(catalog_, text));
  }

  Catalog catalog_;
  EngineFactory engines_{&catalog_};
  AttrSet u_;
  RelId e_ = kInvalidRel, f_ = kInvalidRel, g_ = kInvalidRel;
  DbSchema base_;
  std::optional<View> view_;
};

TEST_F(Section41Test, SDecomposesTraditionally) {
  // pi_AB(S) |x| pi_BC(S) == S.
  EXPECT_TRUE(EquivalentTableaux(
      catalog_, T("pi{A,B}(e * f) * pi{B,C}(e * f)"), T("e * f")));
}

TEST_F(Section41Test, TDoesNotDecomposeTraditionally) {
  // pi_A(T) |x| pi_C(T) != T: the A-C correlation is lost.
  EXPECT_FALSE(EquivalentTableaux(
      catalog_,
      T("pi{A}(pi{A,C}(e * f) * g) * pi{C}(pi{A,C}(e * f) * g)"),
      T("pi{A,C}(e * f) * g")));
}

TEST_F(Section41Test, TRebuildsFromProjectionInPresenceOfS) {
  // T == pi_AC(S) * pi_A(T): the inter-relational constraint at work.
  EXPECT_TRUE(EquivalentTableaux(
      catalog_, T("pi{A,C}(e * f) * pi{A}(pi{A,C}(e * f) * g)"),
      T("pi{A,C}(e * f) * g")));
}

TEST_F(Section41Test, ViewIsNonredundantYetNotSimplified) {
  QuerySet set = QuerySet::FromView(*view_);
  EXPECT_TRUE(Unwrap(IsNonredundantSet(engines_.New(), set)));
  // Neither defining query is simple.
  EXPECT_FALSE(Unwrap(IsSimple(engines_.New(), &catalog_, set, 0)).simple);
  EXPECT_FALSE(Unwrap(IsSimple(engines_.New(), &catalog_, set, 1)).simple);
  EXPECT_FALSE(Unwrap(IsSimplifiedView(engines_.New(), &catalog_, *view_)));
}

TEST_F(Section41Test, SimplifyProducesTheNormalForm) {
  SimplifyOutcome outcome = Unwrap(Simplify(engines_.New(), &catalog_, *view_));
  EXPECT_FALSE(outcome.inconclusive);
  // The normal form: { pi_AB(S), pi_BC(S), pi_A(T) }.
  ASSERT_EQ(outcome.view.size(), 3u);
  std::vector<Tableau> expected = {T("pi{A,B}(e * f)"), T("pi{B,C}(e * f)"),
                                   T("pi{A}(pi{A,C}(e * f) * g)")};
  for (const Tableau& want : expected) {
    bool found = false;
    for (const ViewDefinition& d : outcome.view.definitions()) {
      if (EquivalentTableaux(catalog_, d.tableau, want)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
  // Theorem 4.1.3: equivalent to the input; Theorem 4.1.1: nonredundant.
  EXPECT_TRUE(
      Unwrap(AreEquivalent(engines_.New(), *view_, outcome.view)).equivalent);
  EXPECT_TRUE(
      Unwrap(IsSimplifiedView(engines_.New(), &catalog_, outcome.view)));
  EXPECT_TRUE(Unwrap(
      IsNonredundantSet(engines_.New(), QuerySet::FromView(outcome.view))));
}

TEST_F(Section41Test, SimplifiedDefiningQueriesAreProjectionsOfInputs) {
  // Theorem 4.2.1: every defining query of a simplified equivalent is a
  // projection of some defining query of the input.
  SimplifyOutcome outcome = Unwrap(Simplify(engines_.New(), &catalog_, *view_));
  SymbolPool pool;
  for (const ViewDefinition& d : outcome.view.definitions()) {
    bool is_projection_of_input = false;
    for (const ViewDefinition& input : view_->definitions()) {
      input.tableau.ReserveSymbols(pool);
      for (const AttrSet& x : input.tableau.Trs().NonemptySubsets()) {
        Tableau projected =
            x == input.tableau.Trs()
                ? input.tableau
                : Unwrap(ProjectTableau(catalog_, input.tableau, x, pool));
        if (EquivalentTableaux(catalog_, d.tableau, projected)) {
          is_projection_of_input = true;
          break;
        }
      }
      if (is_projection_of_input) break;
    }
    EXPECT_TRUE(is_projection_of_input);
  }
}

TEST_F(Section41Test, MaximalityOfSimplifiedViews) {
  // Theorem 4.2.3: no nonredundant equivalent view is larger than the
  // simplified one. Cross-check against the input itself (2 < 3) and the
  // bound machinery.
  SimplifyOutcome outcome = Unwrap(Simplify(engines_.New(), &catalog_, *view_));
  NonredundantViewResult nr = Unwrap(MakeNonredundant(engines_.New(), *view_));
  EXPECT_LE(nr.view.size(), outcome.view.size());
}

// Example 3.1.5 as the Section 4 illustration: W = {pi_AB(r), pi_BC(r)} is
// simplified; V = {pi_AB(r) |x| pi_BC(r)} is nonredundant but NOT
// simplified; simplify(V) equals W up to renaming (Theorem 4.2.2).
class Example315SimplifyTest : public ::testing::Test {
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

TEST_F(Example315SimplifyTest, WIsSimplifiedVIsNot) {
  EXPECT_TRUE(Unwrap(IsSimplifiedView(engines_.New(), &catalog_, *w_)));
  EXPECT_FALSE(Unwrap(IsSimplifiedView(engines_.New(), &catalog_, *v_)));
}

TEST_F(Example315SimplifyTest, SimplifyVYieldsWUpToRenaming) {
  SimplifyOutcome outcome = Unwrap(Simplify(engines_.New(), &catalog_, *v_));
  EXPECT_EQ(outcome.view.size(), 2u);
  EXPECT_TRUE(
      Unwrap(SameQueriesUpToRenaming(engines_.New(), outcome.view, *w_)));
  EXPECT_TRUE(
      Unwrap(AreEquivalent(engines_.New(), outcome.view, *v_)).equivalent);
}

TEST_F(Example315SimplifyTest, SimplifyIsIdempotentUpToRenaming) {
  SimplifyOutcome once = Unwrap(Simplify(engines_.New(), &catalog_, *v_));
  SimplifyOutcome twice =
      Unwrap(Simplify(engines_.New(), &catalog_, once.view));
  EXPECT_TRUE(
      Unwrap(SameQueriesUpToRenaming(engines_.New(), once.view, twice.view)));
}

TEST_F(Example315SimplifyTest, UniquenessAcrossEquivalentInputs) {
  // Theorem 4.2.2: simplifying two equivalent views gives the same set of
  // defining queries up to renaming.
  SimplifyOutcome from_v = Unwrap(Simplify(engines_.New(), &catalog_, *v_));
  SimplifyOutcome from_w = Unwrap(Simplify(engines_.New(), &catalog_, *w_));
  EXPECT_TRUE(
      Unwrap(SameQueriesUpToRenaming(engines_.New(), from_v.view,
                                     from_w.view)));
}

TEST_F(Example315SimplifyTest, SimplifiedIsMaximalAmongNonredundant) {
  // Theorem 4.2.3: |V| = 1 <= 2 = |simplified|; and the simplified view
  // attains the maximum size over the nonredundant equivalents we know.
  SimplifyOutcome outcome = Unwrap(Simplify(engines_.New(), &catalog_, *v_));
  EXPECT_GE(outcome.view.size(), v_->size());
  EXPECT_GE(outcome.view.size(), w_->size());
}

TEST_F(Example315SimplifyTest, SameQueriesUpToRenamingNegativeCases) {
  // Sizes differ.
  EXPECT_FALSE(Unwrap(SameQueriesUpToRenaming(engines_.New(), *v_, *w_)));
  RelId l3 = Unwrap(catalog_.AddRelation("l3", catalog_.MakeScheme({"A", "B"})));
  RelId l4 = Unwrap(catalog_.AddRelation("l4", catalog_.MakeScheme({"A", "C"})));
  View other = Unwrap(View::Create(&catalog_, base_,
                                   {{l3, MustParse(catalog_, "pi{A,B}(r)")},
                                    {l4, MustParse(catalog_, "pi{A,C}(r)")}},
                                   "Other"));
  EXPECT_FALSE(Unwrap(SameQueriesUpToRenaming(engines_.New(), other, *w_)));
}

TEST_F(Example315SimplifyTest, ProperProjectionMembersEnumeratesAll) {
  Tableau t = MustBuildTableau(catalog_, u_, *MustParse(catalog_, "r"));
  std::vector<QuerySet::Member> all =
      Unwrap(ProperProjectionMembers(&catalog_, t));
  EXPECT_EQ(all.size(), 6u);  // 2^3 - 2 for TRS {A,B,C}.
  std::vector<QuerySet::Member> maximal =
      Unwrap(MaximalProperProjectionMembers(&catalog_, t));
  EXPECT_EQ(maximal.size(), 3u);
  for (const QuerySet::Member& m : maximal) {
    EXPECT_EQ(m.query.Trs().size(), 2u);
  }
}

TEST(SimplifyDeterminismTest, SurrogateNamesIdenticalAcrossFreshProcesses) {
  // The minted surrogate relation names are seeded from the view's
  // fingerprint, not a process-local counter, so two cold runs — and a
  // cold run vs a warm daemon — render byte-identically. The service
  // differential (tests/service_test.cc, tools/diff_cli_daemon.py)
  // depends on this: it compares simplify output with no carve-out.
  constexpr char kProgram[] = R"(
schema { e(A, B); f(B, C); g(A); }
view VST {
  hS := e * f;
  hT := pi{A,C}(e * f) * g;
}
)";
  auto run = [&] {
    Analyzer analyzer;
    VIEWCAP_EXPECT_OK(analyzer.Load(kProgram));
    std::string report;
    Unwrap(analyzer.SimplifyView("VST", {}, &report));
    return report;
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  // The seeded-prefix scheme is visible in the minted names.
  EXPECT_NE(first.find("_s"), std::string::npos);
}

TEST_F(Example315SimplifyTest, SingleAttributeQueriesAreSimpleIffNonredundant) {
  // TRS of size one has no proper projections: simplicity degenerates to
  // nonredundancy.
  RelId p1 = Unwrap(catalog_.AddRelation("p1", catalog_.MakeScheme({"A"})));
  View tiny = Unwrap(View::Create(
      &catalog_, base_, {{p1, MustParse(catalog_, "pi{A}(r)")}}, "Tiny"));
  QuerySet set = QuerySet::FromView(tiny);
  EXPECT_TRUE(Unwrap(IsSimple(engines_.New(), &catalog_, set, 0)).simple);
  EXPECT_TRUE(Unwrap(IsSimplifiedView(engines_.New(), &catalog_, tiny)));
  SimplifyOutcome outcome = Unwrap(Simplify(engines_.New(), &catalog_, tiny));
  EXPECT_TRUE(
      Unwrap(SameQueriesUpToRenaming(engines_.New(), outcome.view, tiny)));
}

}  // namespace
}  // namespace viewcap
