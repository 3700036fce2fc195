// End-to-end tests for core/analyzer.h.
#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

using testing::Unwrap;

constexpr char kProgram[] = R"(
  schema { r(A, B, C); }
  view V { v := pi{A,B}(r) * pi{B,C}(r); }
  view W { w1 := pi{A,B}(r); w2 := pi{B,C}(r); }
  view Narrow { n := pi{A,B}(r); }
)";

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override { VIEWCAP_ASSERT_OK(analyzer_.Load(kProgram)); }
  Analyzer analyzer_;
};

TEST_F(AnalyzerTest, LoadsViewsInOrder) {
  EXPECT_EQ(analyzer_.ViewNames(),
            (std::vector<std::string>{"V", "W", "Narrow"}));
  EXPECT_EQ(analyzer_.base().size(), 1u);
  const View* v = Unwrap(analyzer_.GetView("V"));
  EXPECT_EQ(v->size(), 1u);
  EXPECT_EQ(analyzer_.GetView("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(AnalyzerTest, EquivalenceWithReport) {
  std::string report;
  EquivalenceResult eq =
      Unwrap(analyzer_.CheckEquivalence("V", "W", {}, &report));
  EXPECT_TRUE(eq.equivalent);
  EXPECT_NE(report.find("equivalent(V, W) = true"), std::string::npos);
  EXPECT_NE(report.find("answered by"), std::string::npos);

  EquivalenceResult neq =
      Unwrap(analyzer_.CheckEquivalence("V", "Narrow", {}, &report));
  EXPECT_FALSE(neq.equivalent);
  EXPECT_NE(report.find("NOT answerable"), std::string::npos);
}

TEST_F(AnalyzerTest, AnswerableQueries) {
  std::string report;
  MembershipResult yes = Unwrap(analyzer_.CheckAnswerable(
      "W", "pi{A,C}(pi{A,B}(r) * pi{B,C}(r))", {}, &report));
  EXPECT_TRUE(yes.member);
  EXPECT_NE(report.find("answerable via"), std::string::npos);

  MembershipResult no =
      Unwrap(analyzer_.CheckAnswerable("W", "r", {}, &report));
  EXPECT_FALSE(no.member);
  EXPECT_NE(report.find("not answerable"), std::string::npos);
}

TEST_F(AnalyzerTest, AnswerableRejectsNonBaseQueries) {
  // 'v' is a view relation, not a base one: not a query of the database.
  EXPECT_EQ(analyzer_.CheckAnswerable("W", "v").status().code(),
            StatusCode::kIllFormed);
  // Parse errors propagate.
  EXPECT_EQ(analyzer_.CheckAnswerable("W", "pi{").status().code(),
            StatusCode::kParseError);
}

TEST_F(AnalyzerTest, RedundancyEliminationRegistersResult) {
  VIEWCAP_ASSERT_OK(analyzer_.Load(R"(
    view R3 { a := pi{A,B}(r); b := pi{B,C}(r);
              c := pi{A,B}(r) * pi{B,C}(r); }
  )"));
  std::string report;
  NonredundantViewResult nr =
      Unwrap(analyzer_.EliminateRedundancy("R3", {}, &report));
  // Greedy order drops a (= pi_AB(c)) and then b (= pi_BC(c)), leaving the
  // singleton {c} — the Example 3.1.5 phenomenon that nonredundant
  // equivalents come in different sizes.
  EXPECT_EQ(nr.view.size(), 1u);
  EXPECT_NE(report.find("kept 1 of 3"), std::string::npos);
  EXPECT_TRUE(analyzer_.GetView("R3_nr").ok());
}

TEST_F(AnalyzerTest, SimplifyRegistersResult) {
  std::string report;
  SimplifyOutcome outcome = Unwrap(analyzer_.SimplifyView("V", {}, &report));
  EXPECT_EQ(outcome.view.size(), 2u);
  EXPECT_TRUE(analyzer_.GetView("V_simplified").ok());
  EXPECT_NE(report.find("simplified in"), std::string::npos);
}

TEST_F(AnalyzerTest, IncrementalLoadSharesCatalog) {
  VIEWCAP_ASSERT_OK(analyzer_.Load(R"(
    schema { s(C, D); }
    view X { x := r * s; }
  )"));
  EXPECT_EQ(analyzer_.base().size(), 2u);
  EXPECT_TRUE(analyzer_.GetView("X").ok());
}

TEST_F(AnalyzerTest, DuplicateViewNameRejected) {
  Status st = analyzer_.Load("view V { dup := pi{A}(r); }");
  EXPECT_EQ(st.code(), StatusCode::kIllFormed);
}

TEST_F(AnalyzerTest, LimitsArePluggable) {
  SearchLimits limits;
  limits.max_candidates = 1;
  // A member only the enumeration finds, under a starved budget: the
  // analyzer reports the exhaustion instead of a clean negative.
  MembershipResult m = Unwrap(
      analyzer_.CheckAnswerable("W", "pi{A}(r) * pi{C}(r)", limits));
  EXPECT_FALSE(m.member);
  EXPECT_TRUE(m.budget_exhausted);
}

TEST_F(AnalyzerTest, LatticeClassifiesAllPairs) {
  std::string report;
  std::vector<Analyzer::LatticeEntry> entries =
      Unwrap(analyzer_.CompareAllViews({}, &report));
  ASSERT_EQ(entries.size(), 3u);  // C(3,2) pairs.
  // V ~ W equivalent; both strictly dominate Narrow.
  for (const Analyzer::LatticeEntry& e : entries) {
    if (e.left == "V" && e.right == "W") {
      EXPECT_TRUE(e.left_dominates_right);
      EXPECT_TRUE(e.right_dominates_left);
    }
    if (e.right == "Narrow") {
      EXPECT_TRUE(e.left_dominates_right);
      EXPECT_FALSE(e.right_dominates_left);
    }
  }
  EXPECT_NE(report.find("EQUIVALENT"), std::string::npos);
  EXPECT_NE(report.find("dominates"), std::string::npos);
}

TEST_F(AnalyzerTest, MinimizeQuery) {
  std::string report;
  MinimizeResult result = Unwrap(analyzer_.MinimizeQuery(
      "pi{A,B}(r) * pi{A,B}(r * r)", {}, &report));
  EXPECT_EQ(result.leaves_after, 1u);
  EXPECT_TRUE(result.minimal);
  EXPECT_NE(report.find("-> 1 leaves"), std::string::npos);
  // Rejects view-relation queries and parse errors.
  EXPECT_EQ(analyzer_.MinimizeQuery("v").status().code(),
            StatusCode::kIllFormed);
  EXPECT_EQ(analyzer_.MinimizeQuery("pi{").status().code(),
            StatusCode::kParseError);
}

TEST_F(AnalyzerTest, ExportedViewReloadsElsewhere) {
  std::string program = Unwrap(analyzer_.ExportView("W"));
  Analyzer fresh;
  VIEWCAP_ASSERT_OK(fresh.Load(program));
  const View* reloaded = Unwrap(fresh.GetView("W"));
  EXPECT_EQ(reloaded->size(), 2u);
}

TEST_F(AnalyzerTest, EvaluateViewQueryAgainstData) {
  std::string report;
  Relation result = Unwrap(analyzer_.EvaluateViewQuery(
      "W", "pi{A,C}(w1 * w2)",
      "r(1, 1, 1); r(2, 1, 3); r(2, 2, 2);", &report));
  // pi_AB and pi_BC recombine on B: pairs (a, c) with a shared b.
  // b=1: a in {1,2} x c in {1,3}; b=2: (2,2) -> 4 + 1 = 5.
  EXPECT_EQ(result.size(), 5u);
  EXPECT_NE(report.find("surrogate: pi{A, C}"), std::string::npos);

  // Errors: bad data, bad query, unknown view.
  EXPECT_EQ(analyzer_
                .EvaluateViewQuery("W", "w1", "r(1);")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(analyzer_
                .EvaluateViewQuery("W", "r", "r(1, 1, 1);")
                .status()
                .code(),
            StatusCode::kIllFormed);  // 'r' is not a view-schema query.
  EXPECT_EQ(analyzer_
                .EvaluateViewQuery("Nope", "w1", "")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(AnalyzerErrorTest, BadProgramFailsCleanly) {
  Analyzer analyzer;
  EXPECT_EQ(analyzer.Load("view V { v := r; }").code(),
            StatusCode::kParseError);
  EXPECT_TRUE(analyzer.ViewNames().empty());
}

}  // namespace
}  // namespace viewcap
