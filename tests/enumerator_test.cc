// Unit tests for algebra/enumerator.h: the candidate generator behind the
// Section 2.4 decision procedures.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "algebra/enumerator.h"
#include "algebra/printer.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

using testing::Unwrap;

class EnumeratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = Unwrap(catalog_.AddRelation("r", catalog_.MakeScheme({"A", "B"})));
    s_ = Unwrap(catalog_.AddRelation("s", catalog_.MakeScheme({"B", "C"})));
  }

  Catalog catalog_;
  RelId r_ = kInvalidRel, s_ = kInvalidRel;
};

TEST_F(EnumeratorTest, LevelOneFormsAreNamesAndProjections) {
  ExprEnumerator enumerator(&catalog_, {r_, s_});
  std::vector<std::string> seen;
  ExprEnumerator::Stats stats = enumerator.Enumerate(
      1, 1000, [&](const ExprPtr& e) {
        EXPECT_EQ(e->LeafCount(), 1u);
        seen.push_back(ToString(*e, catalog_));
        return ExprEnumerator::Verdict::kKeep;
      });
  // Per binary name: the name + 2 proper single-attribute projections.
  EXPECT_EQ(stats.generated, 6u);
  EXPECT_EQ(stats.kept, 6u);
  EXPECT_FALSE(stats.exhausted_budget);
  EXPECT_FALSE(stats.stopped);
  std::set<std::string> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), 6u);
  EXPECT_TRUE(unique.count("r"));
  EXPECT_TRUE(unique.count("pi{A}(r)"));
  EXPECT_TRUE(unique.count("pi{C}(s)"));
}

TEST_F(EnumeratorTest, LeafCountsAreNondecreasing) {
  ExprEnumerator enumerator(&catalog_, {r_, s_});
  std::size_t last = 0;
  enumerator.Enumerate(3, 100000, [&](const ExprPtr& e) {
    EXPECT_GE(e->LeafCount(), last);
    last = e->LeafCount();
    return ExprEnumerator::Verdict::kKeep;
  });
  EXPECT_EQ(last, 3u);
}

TEST_F(EnumeratorTest, SkippedCandidatesAreNotBuildingBlocks) {
  ExprEnumerator enumerator(&catalog_, {r_});
  // Skip everything at level 1: no joins can ever form.
  std::size_t total = 0;
  ExprEnumerator::Stats stats = enumerator.Enumerate(
      3, 100000, [&](const ExprPtr& e) {
        ++total;
        EXPECT_EQ(e->LeafCount(), 1u);
        return ExprEnumerator::Verdict::kSkip;
      });
  EXPECT_EQ(stats.kept, 0u);
  EXPECT_EQ(total, stats.generated);
  EXPECT_GT(total, 0u);
}

TEST_F(EnumeratorTest, StopAbortsImmediately) {
  ExprEnumerator enumerator(&catalog_, {r_, s_});
  ExprEnumerator::Stats stats = enumerator.Enumerate(
      3, 100000,
      [&](const ExprPtr&) { return ExprEnumerator::Verdict::kStop; });
  EXPECT_TRUE(stats.stopped);
  EXPECT_EQ(stats.generated, 1u);
}

TEST_F(EnumeratorTest, CandidateCapReported) {
  ExprEnumerator enumerator(&catalog_, {r_, s_});
  ExprEnumerator::Stats stats = enumerator.Enumerate(
      4, 10, [&](const ExprPtr&) { return ExprEnumerator::Verdict::kKeep; });
  EXPECT_TRUE(stats.exhausted_budget);
  EXPECT_EQ(stats.generated, 10u);
}

TEST_F(EnumeratorTest, JoinsCombineKeptBlocksOnly) {
  // Keep only the bare names; level-2 candidates are then exactly the
  // unordered name pairs and their projections.
  ExprEnumerator enumerator(&catalog_, {r_, s_});
  std::vector<std::string> level2;
  enumerator.Enumerate(2, 100000, [&](const ExprPtr& e) {
    if (e->LeafCount() == 1) {
      return e->kind() == Expr::Kind::kRelName
                 ? ExprEnumerator::Verdict::kKeep
                 : ExprEnumerator::Verdict::kSkip;
    }
    level2.push_back(ToString(*e, catalog_));
    return ExprEnumerator::Verdict::kSkip;
  });
  // Pairs: r*r (TRS {A,B}: +2 projections), r*s (TRS {A,B,C}: +6), s*s
  // (+2): 3 joins + 10 projections = 13 candidates.
  EXPECT_EQ(level2.size(), 13u);
  std::set<std::string> unique(level2.begin(), level2.end());
  EXPECT_TRUE(unique.count("r * s"));
  EXPECT_TRUE(unique.count("pi{A, C}(r * s)"));
  EXPECT_TRUE(unique.count("r * r"));
  // Commutative duplicates are not emitted.
  EXPECT_FALSE(unique.count("s * r"));
}

TEST_F(EnumeratorTest, StopInsideTheCandidateCapIsNotExhaustion) {
  // The cap of four cuts level 1 short of its six candidates, but the
  // stop candidate "s" is the fourth: the search stops on it before the
  // cap ever turns a candidate away, so it must not report an exhausted
  // budget.
  ExprEnumerator enumerator(&catalog_, {r_, s_});
  ExprEnumerator::Stats stats = enumerator.Enumerate(
      1, 4, [&](const ExprPtr& e) {
        return ToString(*e, catalog_) == "s" ? ExprEnumerator::Verdict::kStop
                                             : ExprEnumerator::Verdict::kKeep;
      });
  EXPECT_TRUE(stats.stopped);
  EXPECT_FALSE(stats.exhausted_budget);
  EXPECT_EQ(stats.generated, 4u);
}

TEST_F(EnumeratorTest, ZeroBudgetYieldsNothing) {
  ExprEnumerator enumerator(&catalog_, {r_});
  ExprEnumerator::Stats stats = enumerator.Enumerate(
      0, 100, [&](const ExprPtr&) { return ExprEnumerator::Verdict::kKeep; });
  EXPECT_EQ(stats.generated, 0u);
}

}  // namespace
}  // namespace viewcap
