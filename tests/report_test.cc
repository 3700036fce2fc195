// Tests for core/report.h: the markdown audit generator.
#include <gtest/gtest.h>

#include "base/strings.h"
#include "core/report.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

using testing::Unwrap;

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VIEWCAP_ASSERT_OK(analyzer_.Load(R"(
      schema { r(A, B, C); }
      view V { v := pi{A,B}(r) * pi{B,C}(r); }
      view W { w1 := pi{A,B}(r); w2 := pi{B,C}(r); }
    )"));
  }
  Analyzer analyzer_;
};

TEST_F(ReportTest, ContainsAllSections) {
  std::string report = Unwrap(RenderReport(analyzer_));
  EXPECT_NE(report.find("# viewcap analysis report"), std::string::npos);
  EXPECT_NE(report.find("## Underlying database schema"), std::string::npos);
  EXPECT_NE(report.find("`r(A, B, C)`"), std::string::npos);
  EXPECT_NE(report.find("## View `V`"), std::string::npos);
  EXPECT_NE(report.find("## View `W`"), std::string::npos);
  EXPECT_NE(report.find("Simplified normal form"), std::string::npos);
  EXPECT_NE(report.find("## Pairwise dominance"), std::string::npos);
  EXPECT_NE(report.find("V EQUIVALENT to W"), std::string::npos);
  EXPECT_NE(report.find("Capacity fragment"), std::string::npos);
  EXPECT_NE(report.find("Lemma 3.1.6"), std::string::npos);
}

TEST_F(ReportTest, VerdictsMatchTheory) {
  std::string report = Unwrap(RenderReport(analyzer_));
  // V's single join definition is not simple (it decomposes); W's
  // projections are simple. The table rows carry the verdicts.
  std::size_t v_row = report.find("| `v` |");
  ASSERT_NE(v_row, std::string::npos);
  std::size_t v_row_end = report.find('\n', v_row);
  std::string v_line = report.substr(v_row, v_row_end - v_row);
  EXPECT_NE(v_line.find("| no | no |"), std::string::npos) << v_line;

  std::size_t w1_row = report.find("| `w1` |");
  ASSERT_NE(w1_row, std::string::npos);
  std::string w1_line =
      report.substr(w1_row, report.find('\n', w1_row) - w1_row);
  EXPECT_NE(w1_line.find("| no | yes |"), std::string::npos) << w1_line;
}

TEST_F(ReportTest, OptionsDisableSections) {
  ReportOptions options;
  options.include_normal_forms = false;
  options.include_lattice = false;
  options.capacity_leaves = 0;
  std::string report = Unwrap(RenderReport(analyzer_, options));
  EXPECT_EQ(report.find("Simplified normal form"), std::string::npos);
  EXPECT_EQ(report.find("## Pairwise dominance"), std::string::npos);
  EXPECT_EQ(report.find("Capacity fragment"), std::string::npos);
  EXPECT_NE(report.find("## View `V`"), std::string::npos);
}

TEST_F(ReportTest, SingleViewSkipsLattice) {
  Analyzer solo;
  VIEWCAP_ASSERT_OK(solo.Load(R"(
    schema { r(A, B); }
    view Only { o := r; }
  )"));
  std::string report = Unwrap(RenderReport(solo));
  EXPECT_EQ(report.find("## Pairwise dominance"), std::string::npos);
}

TEST(RenderHitRateTest, ZeroDenominatorPrintsNotApplicable) {
  // A fresh engine has caches with zero requests; their rate column must
  // read "n/a", never a fake "0.0%" (and never divide by zero).
  EXPECT_EQ(RenderHitRate(0, 0), "n/a");
  EXPECT_EQ(RenderHitRate(0, 4), "0.0%");
  EXPECT_EQ(RenderHitRate(1, 3), "33.3%");
  EXPECT_EQ(RenderHitRate(3, 3), "100.0%");
}

TEST(RenderEngineStatsTest, FreshEngineRendersNoBogusRates) {
  const std::string out = RenderEngineStats(EngineStats{});
  EXPECT_NE(out.find("| row-embedding | 0 | 0 | n/a |"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("0.0%"), std::string::npos) << out;
  EXPECT_NE(out.find("Live membership verdicts: 0 canonical witness, "
                     "0 refutation, 0 enumeration\n"),
            std::string::npos)
      << out;
  // The filter table renders its header but no backend rows: no filter
  // ran, so there is nothing to rate.
  EXPECT_NE(out.find("### Candidate filter"), std::string::npos);
  EXPECT_NE(out.find("| backend | invocations | rows | survivors |"),
            std::string::npos);
  EXPECT_EQ(out.find("| scalar |"), std::string::npos) << out;
}

TEST(RenderEngineStatsTest, FilterTableRendersOneRow) {
  EngineStats stats;
  stats.filter.invocations = 4;
  stats.filter.rows = 10;
  stats.filter.survivors = 5;
  const std::string out = RenderEngineStats(stats);
  // The filter has one implementation, so the table has one row.
  const std::size_t table = out.find("### Candidate filter");
  ASSERT_NE(table, std::string::npos) << out;
  EXPECT_EQ(out.substr(table),
            "### Candidate filter\n\n"
            "| backend | invocations | rows | survivors | survivor rate |\n"
            "|---|---|---|---|---|\n"
            "| scalar | 4 | 10 | 5 | 50.0% |\n");
}

TEST(RenderEngineStatsTest, MembershipRoutesRenderOnOneLine) {
  EngineStats stats;
  stats.interned_classes = 3;
  stats.intern_requests = 5;
  stats.intern_hits = 2;
  stats.reduce_runs = 3;
  stats.canonical_key_runs = 3;
  stats.membership = {4, 2, 1};
  const std::string out = RenderEngineStats(stats);
  EXPECT_EQ(out.substr(0, out.find("| cache |")),
            "## Engine statistics\n\n"
            "Interned template classes: 3 (5 requests, 2 hits, 3 reduce runs, "
            "3 canonical-key runs)\n"
            "Live membership verdicts: 4 canonical witness, 2 refutation, "
            "1 enumeration\n\n");
}

TEST(RenderEngineStatsTest, LiveEngineReportsFilterActivity) {
  // Any real workload runs the candidate filter (Reduce probes at
  // minimum), so its row must appear with a live survivor rate.
  Analyzer analyzer;
  VIEWCAP_ASSERT_OK(analyzer.Load(R"(
    schema { r(A, B, C); }
    view V { v := pi{A,B}(r) * pi{B,C}(r); }
  )"));
  ReportOptions options;
  options.include_engine_stats = true;
  const std::string report = Unwrap(RenderReport(analyzer, options));
  const FilterCounters f = analyzer.engine_stats().filter;
  EXPECT_GT(f.invocations, 0u);
  EXPECT_GE(f.rows, f.survivors);
  const std::string row = StrCat("| scalar | ", f.invocations, " | ", f.rows,
                                 " | ", f.survivors, " | ");
  EXPECT_NE(report.find(row), std::string::npos) << report;
}

}  // namespace
}  // namespace viewcap
