// Thread-count determinism: equivalence runs its two dominance directions
// and redundancy its leave-one-out tests at once when
// SearchLimits::threads allows, and must report the same verdicts,
// witnesses and victims for every value; a single membership search is
// serial at any value and must report the same search statistics.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "algebra/parser.h"
#include "algebra/printer.h"
#include "tests/test_util.h"
#include "views/capacity.h"
#include "views/equivalence.h"
#include "views/redundancy.h"

namespace viewcap {
namespace {

using testing::MustParse;
using testing::Unwrap;

const std::size_t kThreadCounts[] = {1, 2, 8};

class ParallelDeterminismTest : public ::testing::Test {
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

  // Every run gets a fresh engine: the verdict and dominance cache keys
  // omit the thread count, so a shared engine would answer later thread
  // counts from the first run's cache entries.

  MembershipResult Membership(const std::string& query, SearchLimits limits) {
    Engine engine(&catalog_);
    CapacityOracle oracle(&engine, *view_, limits);
    return Unwrap(oracle.Contains(MustParse(catalog_, query)));
  }

  EquivalenceResult Equivalence(const View& v, const View& w,
                                SearchLimits limits) {
    Engine engine(&catalog_);
    return Unwrap(AreEquivalent(engine, v, w, limits));
  }

  NonredundantViewResult Nonredundant(const View& view, SearchLimits limits) {
    Engine engine(&catalog_);
    return Unwrap(MakeNonredundant(engine, view, limits));
  }

  static std::string WitnessString(const Catalog& catalog,
                                   const MembershipResult& m) {
    return m.witness == nullptr ? "<null>" : ToString(*m.witness, catalog);
  }

  Catalog catalog_;
  AttrSet u_;
  RelId r_ = kInvalidRel, w1_ = kInvalidRel, w2_ = kInvalidRel;
  DbSchema base_;
  std::optional<View> view_;
};

TEST_F(ParallelDeterminismTest, MemberFoundByEnumerationIsIdentical) {
  // pi{A}(r) x pi{C}(r) is a member, but not via the canonical single-copy
  // witness (the canonical join correlates on B; the cross product does
  // not), so the enumeration must actually find the witness.
  const std::string query = "pi{A}(r) * pi{C}(r)";
  SearchLimits limits;
  limits.threads = 1;
  MembershipResult reference = Membership(query, limits);
  ASSERT_TRUE(reference.member);
  ASSERT_GT(reference.candidates_tried, 0u)
      << "expected the enumeration path, not the canonical fast path";
  for (std::size_t threads : kThreadCounts) {
    limits.threads = threads;
    MembershipResult m = Membership(query, limits);
    EXPECT_EQ(m.member, reference.member) << threads;
    EXPECT_EQ(WitnessString(catalog_, m),
              WitnessString(catalog_, reference))
        << threads;
    EXPECT_EQ(m.budget_exhausted, reference.budget_exhausted) << threads;
    EXPECT_EQ(m.candidates_tried, reference.candidates_tried) << threads;
    EXPECT_EQ(m.leaf_budget, reference.leaf_budget) << threads;
  }
}

TEST_F(ParallelDeterminismTest, NonMemberVerdictIsIdentical) {
  // The 2-leaf member of MemberFoundByEnumerationIsIdentical under a leaf
  // cap of 1: the refutation cannot settle it, so the search runs its
  // whole 1-leaf space (6 candidates) to natural exhaustion and
  // reports a negative, inconclusive because the cap sits below the
  // reduced query's 2 rows.
  const std::string query = "pi{A}(r) * pi{C}(r)";
  SearchLimits limits;
  limits.max_leaves = 1;
  limits.threads = 1;
  MembershipResult reference = Membership(query, limits);
  ASSERT_FALSE(reference.member);
  ASSERT_TRUE(reference.budget_exhausted);
  ASSERT_EQ(reference.candidates_tried, 6u);
  for (std::size_t threads : kThreadCounts) {
    limits.threads = threads;
    MembershipResult m = Membership(query, limits);
    EXPECT_FALSE(m.member) << threads;
    EXPECT_EQ(m.budget_exhausted, reference.budget_exhausted) << threads;
    EXPECT_EQ(m.candidates_tried, reference.candidates_tried) << threads;
  }
}

TEST_F(ParallelDeterminismTest, BudgetExhaustedNonMemberIsIdentical) {
  // With a tiny candidate cap the search for a member only the
  // enumeration finds is cut off mid-stream, leaving a negative: every
  // thread count must report the same (exhausted) statistics.
  const std::string query = "pi{A}(r) * pi{C}(r)";
  SearchLimits limits;
  limits.max_candidates = 4;  // The leaf-1 stream alone has 6 candidates.
  limits.threads = 1;
  MembershipResult reference = Membership(query, limits);
  ASSERT_FALSE(reference.member);
  ASSERT_TRUE(reference.budget_exhausted);
  for (std::size_t threads : kThreadCounts) {
    limits.threads = threads;
    MembershipResult m = Membership(query, limits);
    EXPECT_FALSE(m.member) << threads;
    EXPECT_TRUE(m.budget_exhausted) << threads;
    EXPECT_EQ(m.candidates_tried, reference.candidates_tried) << threads;
  }
}

TEST_F(ParallelDeterminismTest, EquivalenceVerdictIsIdentical) {
  RelId l = Unwrap(catalog_.AddRelation("l", u_));
  View v = Unwrap(View::Create(
      &catalog_, base_,
      {{l, MustParse(catalog_, "pi{A,B}(r) * pi{B,C}(r)")}}, "V"));
  SearchLimits limits;
  limits.threads = 1;
  EquivalenceResult reference = Equivalence(v, *view_, limits);
  ASSERT_TRUE(reference.equivalent);
  for (std::size_t threads : kThreadCounts) {
    limits.threads = threads;
    EquivalenceResult eq = Equivalence(v, *view_, limits);
    EXPECT_EQ(eq.equivalent, reference.equivalent) << threads;
    EXPECT_EQ(eq.inconclusive, reference.inconclusive) << threads;
    EXPECT_EQ(eq.v_over_w.dominates, reference.v_over_w.dominates)
        << threads;
    EXPECT_EQ(eq.w_over_v.dominates, reference.w_over_v.dominates)
        << threads;
    ASSERT_EQ(eq.v_over_w.witnesses.size(),
              reference.v_over_w.witnesses.size())
        << threads;
    for (std::size_t j = 0; j < eq.v_over_w.witnesses.size(); ++j) {
      const ExprPtr& got = eq.v_over_w.witnesses[j];
      const ExprPtr& want = reference.v_over_w.witnesses[j];
      EXPECT_EQ(got == nullptr ? "<null>" : ToString(*got, catalog_),
                want == nullptr ? "<null>" : ToString(*want, catalog_))
          << threads << " witness " << j;
    }
  }
}

TEST_F(ParallelDeterminismTest, InequivalenceVerdictIsIdentical) {
  RelId full = Unwrap(catalog_.AddRelation("full", u_));
  View big = Unwrap(View::Create(
      &catalog_, base_, {{full, MustParse(catalog_, "r")}}, "Big"));
  SearchLimits limits;
  limits.threads = 1;
  EquivalenceResult reference = Equivalence(big, *view_, limits);
  ASSERT_FALSE(reference.equivalent);
  for (std::size_t threads : kThreadCounts) {
    limits.threads = threads;
    EquivalenceResult eq = Equivalence(big, *view_, limits);
    EXPECT_EQ(eq.equivalent, reference.equivalent) << threads;
    EXPECT_EQ(eq.v_over_w.dominates, reference.v_over_w.dominates)
        << threads;
    EXPECT_EQ(eq.w_over_v.dominates, reference.w_over_v.dominates)
        << threads;
    EXPECT_EQ(eq.w_over_v.missing, reference.w_over_v.missing) << threads;
  }
}

TEST_F(ParallelDeterminismTest, RedundancyVictimIsIdentical) {
  // m3 duplicates the capacity of {m1, m2}: the elimination must drop the
  // same member (the smallest redundant index) for every thread count.
  RelId m1 =
      Unwrap(catalog_.AddRelation("m1", catalog_.MakeScheme({"A", "B"})));
  RelId m2 =
      Unwrap(catalog_.AddRelation("m2", catalog_.MakeScheme({"B", "C"})));
  RelId m3 = Unwrap(catalog_.AddRelation("m3", u_));
  View x = Unwrap(View::Create(
      &catalog_, base_,
      {{m1, MustParse(catalog_, "pi{A,B}(r)")},
       {m2, MustParse(catalog_, "pi{B,C}(r)")},
       {m3, MustParse(catalog_, "pi{A,B}(r) * pi{B,C}(r)")}},
      "X"));
  SearchLimits limits;
  limits.threads = 1;
  NonredundantViewResult reference = Nonredundant(x, limits);
  ASSERT_LT(reference.kept.size(), x.size());
  for (std::size_t threads : kThreadCounts) {
    limits.threads = threads;
    NonredundantViewResult result = Nonredundant(x, limits);
    EXPECT_EQ(result.kept, reference.kept) << threads;
    EXPECT_EQ(result.inconclusive, reference.inconclusive) << threads;
  }
}

TEST_F(ParallelDeterminismTest, NonredundantSetVerdictIsIdentical) {
  QuerySet set = QuerySet::FromView(*view_);
  for (std::size_t threads : kThreadCounts) {
    SearchLimits limits;
    limits.threads = threads;
    bool inconclusive = true;
    Engine engine(&catalog_);
    EXPECT_TRUE(Unwrap(IsNonredundantSet(engine, set, limits, &inconclusive)))
        << threads;
    EXPECT_FALSE(inconclusive) << threads;
  }
}

}  // namespace
}  // namespace viewcap
