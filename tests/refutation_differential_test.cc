// Seeded soundness differential for the membership shortcuts of
// CapacityOracle::Contains (DESIGN.md, "Search pruning"). Random query
// sets and queries over two schemas; FindConstructions, the Section 3.2
// enumeration that uses neither the canonical witness nor the
// canonical-rewriting refutation, is the reference:
//  - whenever Contains refutes, the enumeration finds no construction;
//  - whenever the enumeration finds a construction, Contains says member.
// jk_crosscheck_test stays the independent, paper-literal oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/printer.h"
#include "base/random.h"
#include "base/strings.h"
#include "tableau/build.h"
#include "tests/test_util.h"
#include "views/capacity.h"

namespace viewcap {
namespace {

using testing::Unwrap;

// Random PJ expressions over the base relations, with an optional
// projection on every node.
ExprPtr RandomExpr(const Catalog& catalog, const std::vector<RelId>& names,
                   Random& rng, std::size_t max_leaves) {
  ExprPtr e;
  if (max_leaves <= 1 || rng.Chance(0.4)) {
    e = Expr::Rel(catalog, names[rng.Index(names.size())]);
  } else {
    const std::size_t left = 1 + rng.Index(max_leaves - 1);
    e = Expr::MustJoin2(RandomExpr(catalog, names, rng, left),
                        RandomExpr(catalog, names, rng, max_leaves - left));
  }
  if (e->trs().size() <= 1 || !rng.Chance(0.5)) return e;
  std::vector<AttrSet> subsets = e->trs().NonemptyProperSubsets();
  return Expr::MustProject(subsets[rng.Index(subsets.size())], std::move(e));
}

struct Tally {
  std::size_t pairs = 0;
  std::size_t refuted = 0;
  std::size_t constructed = 0;
};

// Runs `pairs` random (query set, query) pairs over `base` and checks both
// implications; returns how often each side fired so callers can assert
// the run was not vacuous.
Tally RunDifferential(Catalog& catalog, const AttrSet& universe,
                      const std::vector<RelId>& base, std::uint64_t seed,
                      std::size_t pairs) {
  SearchLimits limits;
  limits.extra_leaves = 1;
  limits.max_candidates = 20000;
  Random rng(seed);
  Engine engine(&catalog);
  Tally tally;
  for (std::size_t p = 0; p < pairs; ++p) {
    std::vector<Tableau> members;
    const std::size_t size = 1 + rng.Index(3);
    for (std::size_t i = 0; i < size; ++i) {
      members.push_back(MustBuildTableau(
          catalog, universe, *RandomExpr(catalog, base, rng, 2)));
    }
    QuerySet set = Unwrap(
        QuerySet::FromTableaux(&catalog, universe, std::move(members)));
    const ExprPtr query_expr = RandomExpr(catalog, base, rng, 3);
    const Tableau query = MustBuildTableau(catalog, universe, *query_expr);
    CapacityOracle oracle(&engine, set, limits);

    const std::size_t refuted_before =
        engine.StatsSnapshot().membership.refutation;
    const MembershipResult verdict = Unwrap(oracle.Contains(query));
    const bool refuted =
        engine.StatsSnapshot().membership.refutation > refuted_before;
    const std::vector<ExhibitedConstruction> found =
        Unwrap(oracle.FindConstructions(query, 1));

    const std::string label =
        StrCat("seed ", seed, " pair ", p, ": ", ToString(query_expr, catalog));
    if (refuted) {
      ++tally.refuted;
      EXPECT_FALSE(verdict.member) << label;
      EXPECT_EQ(verdict.candidates_tried, 0u) << label;
      EXPECT_TRUE(found.empty()) << label << " was refuted but has a "
                                 << "construction";
    }
    if (!found.empty()) {
      ++tally.constructed;
      EXPECT_TRUE(verdict.member) << label << " has a construction";
    }
    ++tally.pairs;
  }
  return tally;
}

TEST(RefutationDifferentialTest, BinarySchemaWithTriangle) {
  Catalog catalog;
  const AttrSet universe = catalog.MakeScheme({"A", "B", "C"});
  const std::vector<RelId> base = {
      Unwrap(catalog.AddRelation("r", catalog.MakeScheme({"A", "B"}))),
      Unwrap(catalog.AddRelation("s", catalog.MakeScheme({"B", "C"}))),
      Unwrap(catalog.AddRelation("u", catalog.MakeScheme({"A", "C"})))};
  const Tally tally = RunDifferential(catalog, universe, base, 18, 60);
  EXPECT_GT(tally.refuted, 0u);
  EXPECT_GT(tally.constructed, 0u);
}

TEST(RefutationDifferentialTest, TernarySchemaWithCycle) {
  Catalog catalog;
  const AttrSet universe = catalog.MakeScheme({"A", "B", "C", "D"});
  const std::vector<RelId> base = {
      Unwrap(catalog.AddRelation("r", catalog.MakeScheme({"A", "B", "C"}))),
      Unwrap(catalog.AddRelation("s", catalog.MakeScheme({"B", "C", "D"}))),
      Unwrap(catalog.AddRelation("t", catalog.MakeScheme({"A", "D"})))};
  const Tally tally = RunDifferential(catalog, universe, base, 18, 60);
  EXPECT_GT(tally.refuted, 0u);
  EXPECT_GT(tally.constructed, 0u);
}

}  // namespace
}  // namespace viewcap
