// Whole-program analysis reports: a markdown audit of every loaded view.
#ifndef VIEWCAP_CORE_REPORT_H_
#define VIEWCAP_CORE_REPORT_H_

#include <string>

#include "core/analyzer.h"
#include "index/index_reader.h"

namespace viewcap {

/// Report tuning.
struct ReportOptions {
  /// Search limits for every decision procedure the report runs.
  SearchLimits limits;
  /// Leaf budget for the capacity-fragment section (0 disables it).
  std::size_t capacity_leaves = 2;
  /// Cap on enumerated capacity members per view.
  std::size_t capacity_entries = 64;
  /// Include the simplified normal form of each view.
  bool include_normal_forms = true;
  /// Include the pairwise dominance classification.
  bool include_lattice = true;
  /// Append the shared engine's cache statistics (interned classes, memo
  /// hit rates) as a final section.
  bool include_engine_stats = false;
};

/// Renders an EngineStats snapshot as a markdown table (one row per cache,
/// plus the interning summary). Used by the report's optional stats section
/// and by the CLI's --engine-stats flag.
std::string RenderEngineStats(const EngineStats& stats);

/// Renders an attached capacity index's serving counters (hits, derived
/// hit rates, fallbacks) as a markdown table. Appended to the stats
/// surfaces only when an index is attached.
std::string RenderIndexStats(const IndexStats& stats);

/// "87.5%"-style ratio with one decimal, or "n/a" when `total` is zero.
/// Integer arithmetic only, so renderings are platform-identical.
std::string RenderHitRate(std::size_t hits, std::size_t total);

/// Renders a markdown report over every view loaded into `analyzer`:
/// the schema, per-view structural statistics (reduced template sizes,
/// connected components), redundancy and simplicity verdicts with
/// witnesses, the simplified normal form, the pairwise dominance lattice,
/// and the size-bounded capacity fragment. Runs the full decision
/// machinery; budget-limited verdicts are annotated.
Result<std::string> RenderReport(Analyzer& analyzer,
                                 const ReportOptions& options = {});

}  // namespace viewcap

#endif  // VIEWCAP_CORE_REPORT_H_
