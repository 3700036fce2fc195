// Property-based tests: seeded random sweeps over expressions, templates,
// assignments and views, checking the paper's theorems as executable
// invariants (TEST_P over seeds).
#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "algebra/expand.h"
#include "algebra/printer.h"
#include "relation/generator.h"
#include "tableau/build.h"
#include "tableau/canonical.h"
#include "tableau/counterexample.h"
#include "tableau/evaluate.h"
#include "tableau/homomorphism.h"
#include "tableau/recognize.h"
#include "tableau/reduce.h"
#include "tableau/substitution.h"
#include "tests/test_util.h"
#include "views/capacity.h"
#include "views/equivalence.h"
#include "views/redundancy.h"
#include "views/simplify.h"

namespace viewcap {
namespace {

using testing::EngineFactory;
using testing::Unwrap;

// Generates random PJ expressions over a set of relation names.
class ExprGenerator {
 public:
  ExprGenerator(const Catalog* catalog, std::vector<RelId> names)
      : catalog_(catalog), names_(std::move(names)) {}

  ExprPtr Generate(Random& rng, std::size_t max_leaves) const {
    if (max_leaves <= 1 || rng.Chance(0.35)) {
      return MaybeProject(Expr::Rel(*catalog_, names_[rng.Index(names_.size())]),
                          rng);
    }
    std::size_t left = 1 + rng.Index(max_leaves - 1);
    ExprPtr lhs = Generate(rng, left);
    ExprPtr rhs = Generate(rng, max_leaves - left);
    return MaybeProject(Expr::MustJoin2(std::move(lhs), std::move(rhs)), rng);
  }

 private:
  ExprPtr MaybeProject(ExprPtr e, Random& rng) const {
    if (!rng.Chance(0.45) || e->trs().size() <= 1) return e;
    std::vector<AttrSet> subsets = e->trs().NonemptyProperSubsets();
    return Expr::MustProject(subsets[rng.Index(subsets.size())],
                             std::move(e));
  }

  const Catalog* catalog_;
  std::vector<RelId> names_;
};

// Shared environment: schema {r(A,B), s(B,C), u(A,C)} — enough structure
// for joins, hidden variables and triangles.
class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    u_ = catalog_.MakeScheme({"A", "B", "C"});
    r_ = Unwrap(catalog_.AddRelation("r", catalog_.MakeScheme({"A", "B"})));
    s_ = Unwrap(catalog_.AddRelation("s", catalog_.MakeScheme({"B", "C"})));
    t_ = Unwrap(catalog_.AddRelation("u", catalog_.MakeScheme({"A", "C"})));
    base_ = DbSchema(catalog_, {r_, s_, t_});
    generator_ = std::make_unique<ExprGenerator>(
        &catalog_, std::vector<RelId>{r_, s_, t_});
    InstanceOptions options;
    options.tuples_per_relation = 5;
    options.domain_size = 3;
    instances_ = std::make_unique<InstanceGenerator>(&catalog_, options);
  }

  Catalog catalog_;
  EngineFactory engines_{&catalog_};
  AttrSet u_;
  RelId r_ = kInvalidRel, s_ = kInvalidRel, t_ = kInvalidRel;
  DbSchema base_;
  std::unique_ptr<ExprGenerator> generator_;
  std::unique_ptr<InstanceGenerator> instances_;
};

// Proposition 2.1.2: Algorithm 2.1.1 preserves the mapping.
TEST_P(PropertyTest, TemplateRealizesExpressionMapping) {
  Random rng(GetParam());
  for (int i = 0; i < 6; ++i) {
    ExprPtr e = generator_->Generate(rng, 4);
    Tableau t = MustBuildTableau(catalog_, u_, *e);
    EXPECT_EQ(t.size(), e->LeafCount());
    for (int trial = 0; trial < 4; ++trial) {
      Instantiation alpha = instances_->Generate(base_, rng);
      EXPECT_EQ(EvaluateTableau(t, alpha), Evaluate(*e, alpha))
          << ToString(*e, catalog_);
    }
  }
}

// Proposition 2.4.4: reduction keeps the mapping and is idempotent.
TEST_P(PropertyTest, ReductionSoundAndIdempotent) {
  Random rng(GetParam());
  for (int i = 0; i < 6; ++i) {
    ExprPtr e = generator_->Generate(rng, 5);
    Tableau t = MustBuildTableau(catalog_, u_, *e);
    Tableau reduced = Reduce(catalog_, t);
    EXPECT_TRUE(EquivalentTableaux(catalog_, t, reduced));
    EXPECT_EQ(Reduce(catalog_, reduced), reduced);
    VIEWCAP_EXPECT_OK(reduced.Validate(catalog_));
    for (int trial = 0; trial < 3; ++trial) {
      Instantiation alpha = instances_->Generate(base_, rng);
      EXPECT_EQ(EvaluateTableau(t, alpha), EvaluateTableau(reduced, alpha));
    }
  }
}

// Proposition 2.4.1 / Corollary 2.4.2: homomorphic equivalence agrees with
// semantic equality (frozen instances + random instances).
TEST_P(PropertyTest, HomomorphicEquivalenceMatchesSemantics) {
  Random rng(GetParam());
  for (int i = 0; i < 5; ++i) {
    Tableau a = MustBuildTableau(catalog_, u_, *generator_->Generate(rng, 4));
    Tableau b = MustBuildTableau(catalog_, u_, *generator_->Generate(rng, 4));
    bool equivalent = EquivalentTableaux(catalog_, a, b);
    std::optional<Instantiation> witness = FindDistinguishingInstance(
        catalog_, a, b, InstanceOptions{}, /*random_trials=*/5, rng);
    EXPECT_EQ(!witness.has_value(), equivalent);
    if (equivalent) {
      for (int trial = 0; trial < 3; ++trial) {
        Instantiation alpha = instances_->Generate(base_, rng);
        EXPECT_EQ(EvaluateTableau(a, alpha), EvaluateTableau(b, alpha));
      }
    }
  }
}

// Canonical keys are invariant under symbol renaming; reduced equivalent
// templates share keys (unique core up to isomorphism).
TEST_P(PropertyTest, CanonicalKeysRespectIsomorphism) {
  Random rng(GetParam());
  for (int i = 0; i < 6; ++i) {
    Tableau t = Reduce(
        catalog_, MustBuildTableau(catalog_, u_, *generator_->Generate(rng, 4)));
    SymbolMap rename;
    for (const Symbol& sym : t.Symbols()) {
      if (!sym.IsDistinguished()) {
        rename[sym] = Symbol::Nondistinguished(
            sym.attr, sym.ordinal + 50 + static_cast<std::uint32_t>(i));
      }
    }
    EXPECT_EQ(CanonicalKey(t), CanonicalKey(t.Apply(rename)));
  }
}

// Theorem 2.2.3: [T -> beta](alpha) = T(beta -> alpha).
TEST_P(PropertyTest, SubstitutionTheorem) {
  Random rng(GetParam());
  // Random "view": one defining query per base relation type.
  SymbolPool pool;
  RelId n_ab = catalog_.MintRelation("pv_ab", catalog_.MakeScheme({"A", "B"}));
  RelId n_bc = catalog_.MintRelation("pv_bc", catalog_.MakeScheme({"B", "C"}));
  TemplateAssignment beta;
  // Defining queries with matching TRS.
  for (auto [handle, trs_names] :
       {std::pair{n_ab, std::pair{"A", "B"}}, {n_bc, {"B", "C"}}}) {
    AttrSet target = catalog_.MakeScheme({trs_names.first, trs_names.second});
    // Rejection-sample an expression with the right TRS, falling back to a
    // projection wrapper.
    ExprPtr e;
    for (int attempt = 0; attempt < 20; ++attempt) {
      ExprPtr candidate = generator_->Generate(rng, 3);
      if (candidate->trs() == target) {
        e = candidate;
        break;
      }
      if (target.SubsetOf(candidate->trs())) {
        e = Expr::MustProject(target, candidate);
        break;
      }
    }
    if (e == nullptr) {
      e = Expr::MustProject(
          target, Expr::MustJoin2(Expr::Rel(catalog_, r_),
                                  Expr::Rel(catalog_, s_)));
    }
    beta.emplace(handle, Unwrap(BuildTableau(catalog_, u_, *e, pool)));
  }
  // Random construction-level template over the two handles.
  ExprGenerator level_gen(&catalog_, {n_ab, n_bc});
  for (int i = 0; i < 4; ++i) {
    ExprPtr level_expr = level_gen.Generate(rng, 3);
    Tableau level = Unwrap(BuildTableau(catalog_, u_, *level_expr, pool));
    Tableau substituted =
        Unwrap(SubstituteTableau(catalog_, level, beta, pool));
    VIEWCAP_EXPECT_OK(substituted.Validate(catalog_));
    for (int trial = 0; trial < 4; ++trial) {
      Instantiation alpha = instances_->Generate(base_, rng);
      Instantiation effect = ApplyAssignment(beta, alpha);
      EXPECT_EQ(EvaluateTableau(substituted, alpha),
                EvaluateTableau(level, effect));
    }
  }
}

// Closure round-trip (Theorems 1.5.2 / 2.3.2 and the Lemma 2.4.8 bound):
// the expansion of ANY view-schema expression lies in Cap(V), and the
// oracle finds it.
TEST_P(PropertyTest, CapacityContainsAllViewQuerySurrogates) {
  Random rng(GetParam());
  RelId v1 = catalog_.MintRelation("cv1_", catalog_.MakeScheme({"A", "B"}));
  RelId v2 = catalog_.MintRelation("cv2_", catalog_.MakeScheme({"B", "C"}));
  View view = Unwrap(View::Create(
      &catalog_, base_,
      {{v1, Expr::MustProject(catalog_.MakeScheme({"A", "B"}),
                              Expr::MustJoin2(Expr::Rel(catalog_, r_),
                                              Expr::Rel(catalog_, s_)))},
       {v2, Expr::Rel(catalog_, s_)}},
      "PV"));
  CapacityOracle oracle(&engines_.New(), view);
  ExprGenerator view_gen(&catalog_, {v1, v2});
  for (int i = 0; i < 5; ++i) {
    ExprPtr view_query = view_gen.Generate(rng, 3);
    ExprPtr surrogate = Unwrap(view.Surrogate(view_query));
    MembershipResult m = Unwrap(oracle.Contains(surrogate));
    EXPECT_TRUE(m.member) << ToString(*view_query, catalog_) << " / "
                          << ToString(*surrogate, catalog_);
    // The witness expands back to the same mapping.
    if (m.member) {
      ExprPtr expanded =
          Unwrap(Expand(catalog_, m.witness, view.AsDefinitions()));
      EXPECT_TRUE(EquivalentTableaux(
          catalog_, MustBuildTableau(catalog_, u_, *expanded),
          MustBuildTableau(catalog_, u_, *surrogate)));
    }
  }
}

// Theorem 3.1.4 + Theorem 4.1.3 pipeline on random views: the nonredundant
// and simplified forms stay equivalent to the original; simplified output
// passes IsSimplifiedView; uniqueness holds across the two pipelines.
TEST_P(PropertyTest, NormalizationPipelinePreservesCapacity) {
  Random rng(GetParam());
  std::vector<std::pair<RelId, ExprPtr>> defs;
  const int num_defs = 2 + static_cast<int>(rng.Next(2));
  for (int i = 0; i < num_defs; ++i) {
    ExprPtr e = generator_->Generate(rng, 3);
    RelId handle = catalog_.MintRelation("nv_", e->trs());
    defs.push_back({handle, e});
  }
  View view = Unwrap(View::Create(&catalog_, base_, defs, "NV"));
  NonredundantViewResult nr = Unwrap(MakeNonredundant(engines_.New(), view));
  EXPECT_TRUE(Unwrap(AreEquivalent(engines_.New(), view, nr.view)).equivalent);

  SimplifyOutcome simplified =
      Unwrap(Simplify(engines_.New(), &catalog_, view));
  EXPECT_TRUE(
      Unwrap(AreEquivalent(engines_.New(), view, simplified.view)).equivalent);
  EXPECT_TRUE(Unwrap(
      IsSimplifiedView(engines_.New(), &catalog_, simplified.view)));

  // Theorem 4.2.2: simplifying the nonredundant form gives the same normal
  // form up to renaming.
  SimplifyOutcome simplified2 =
      Unwrap(Simplify(engines_.New(), &catalog_, nr.view));
  EXPECT_TRUE(Unwrap(
      SameQueriesUpToRenaming(engines_.New(), simplified.view,
                              simplified2.view)));
  // Theorem 4.2.3: the simplified view is at least as large as any
  // nonredundant equivalent we hold.
  EXPECT_GE(simplified.view.size(), nr.view.size());
}

// Export -> Load round trip on random views: the reloaded view is
// equivalent to the original (in a fresh catalog, so equivalence is
// checked by re-deriving both sides' templates there).
TEST_P(PropertyTest, ExportLoadRoundTrip) {
  Random rng(GetParam());
  std::vector<std::pair<RelId, ExprPtr>> defs;
  for (int i = 0; i < 2; ++i) {
    ExprPtr e = generator_->Generate(rng, 3);
    defs.push_back({catalog_.MintRelation("xv_", e->trs()), e});
  }
  View view =
      Unwrap(View::Create(&catalog_, base_, defs, "RoundTrip"));
  std::string program = ExportProgram(view);

  Analyzer fresh;
  VIEWCAP_ASSERT_OK(fresh.Load(program));
  const View* reloaded = Unwrap(fresh.GetView("RoundTrip"));
  ASSERT_EQ(reloaded->size(), view.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_TRUE(Expr::StructurallyEqual(*reloaded->definitions()[i].query,
                                        *view.definitions()[i].query));
  }
}

// Minimization invariants on random expressions: equivalent output, never
// more leaves, idempotent, and leaf count matching the core when minimal.
TEST_P(PropertyTest, MinimizationInvariants) {
  Random rng(GetParam());
  for (int i = 0; i < 5; ++i) {
    ExprPtr e = generator_->Generate(rng, 4);
    MinimizeResult result =
        Unwrap(MinimizeExpression(catalog_, u_, e));
    EXPECT_LE(result.leaves_after, result.leaves_before);
    Tableau original = MustBuildTableau(catalog_, u_, *e);
    Tableau minimized =
        MustBuildTableau(catalog_, u_, *result.expression);
    EXPECT_TRUE(EquivalentTableaux(catalog_, original, minimized));
    if (result.minimal) {
      EXPECT_EQ(result.leaves_after,
                Reduce(catalog_, original).size());
      // Idempotence: minimizing the minimum changes nothing.
      MinimizeResult again =
          Unwrap(MinimizeExpression(catalog_, u_, result.expression));
      EXPECT_EQ(again.leaves_after, result.leaves_after);
    }
    // Semantic agreement on random instances.
    for (int trial = 0; trial < 3; ++trial) {
      Instantiation alpha = instances_->Generate(base_, rng);
      EXPECT_EQ(Evaluate(*result.expression, alpha), Evaluate(*e, alpha));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace viewcap
