#include "core/report.h"

#include "algebra/printer.h"
#include "base/strings.h"
#include "views/components.h"
#include "views/redundancy.h"
#include "views/simplify.h"

namespace viewcap {

namespace {

std::string SchemeNames(const Catalog& catalog, const AttrSet& scheme) {
  std::vector<std::string> names;
  for (AttrId a : scheme) names.push_back(catalog.AttributeName(a));
  return StrJoin(names, ", ");
}

}  // namespace

std::string RenderHitRate(std::size_t hits, std::size_t total) {
  if (total == 0) return "n/a";
  // Integer permille, so the rendering is identical on every platform
  // (no floating-point formatting).
  const std::size_t permille = (hits * 1000 + total / 2) / total;
  return StrCat(permille / 10, ".", permille % 10, "%");
}

std::string RenderEngineStats(const EngineStats& stats) {
  std::string out = "## Engine statistics\n\n";
  out += StrCat("Interned template classes: ", stats.interned_classes, " (",
                stats.intern_requests, " requests, ", stats.intern_hits,
                " hits, ", stats.reduce_runs, " reduce runs, ",
                stats.canonical_key_runs, " canonical-key runs)\n");
  const MembershipCounters& m = stats.membership;
  out += StrCat("Live membership verdicts: ", m.canonical_witness,
                " canonical witness, ", m.refutation, " refutation, ",
                m.enumeration, " enumeration\n\n");
  out += "| cache | requests | hits | hit rate | runs | entries |"
         " evictions |\n";
  out += "|---|---|---|---|---|---|---|\n";
  auto row = [&](const char* name, const CacheCounters& c) {
    out += StrCat("| ", name, " | ", c.requests, " | ", c.hits(), " | ",
                  RenderHitRate(c.hits(), c.requests), " | ", c.runs, " | ",
                  c.entries, " | ", c.evictions, " |\n");
  };
  row("row-embedding", stats.row_embedding);
  row("expansion", stats.expansion);
  row("verdict", stats.verdict);
  row("dominance", stats.dominance);
  // Candidate-filter activity of the kernel searches: one `scalar` row
  // once the filter has run, so a fresh engine prints the header alone.
  const FilterCounters& f = stats.filter;
  out += "\n### Candidate filter\n\n";
  out += "| backend | invocations | rows | survivors | survivor rate |\n";
  out += "|---|---|---|---|---|\n";
  if (f.invocations != 0) {
    out += StrCat("| scalar | ", f.invocations, " | ", f.rows, " | ",
                  f.survivors, " | ", RenderHitRate(f.survivors, f.rows),
                  " |\n");
  }
  return out;
}

std::string RenderIndexStats(const IndexStats& stats) {
  std::string out = "## Capacity index statistics\n\n";
  out += "| lookup | requests | hits | hit rate | fallbacks |\n";
  out += "|---|---|---|---|---|\n";
  out += StrCat("| membership | ", stats.membership_lookups, " | ",
                stats.membership_hits, " | ",
                RenderHitRate(stats.membership_hits,
                              stats.membership_lookups),
                " | ", stats.membership_fallbacks(), " |\n");
  out += StrCat("| dominance | ", stats.dominance_lookups, " | ",
                stats.dominance_hits, " | ",
                RenderHitRate(stats.dominance_hits, stats.dominance_lookups),
                " | ", stats.dominance_fallbacks(), " |\n");
  out += StrCat("\nLimit mismatches (served live): ", stats.limit_mismatches,
                "\n");
  return out;
}

Result<std::string> RenderReport(Analyzer& analyzer,
                                 const ReportOptions& options) {
  Catalog& catalog = analyzer.catalog();
  Engine& engine = analyzer.engine();
  std::string out = "# viewcap analysis report\n\n";

  // ---- Schema. ----------------------------------------------------------
  out += "## Underlying database schema\n\n";
  for (RelId rel : analyzer.base().relations()) {
    out += StrCat("* `", catalog.RelationName(rel), "(",
                  SchemeNames(catalog, catalog.RelationScheme(rel)),
                  ")`\n");
  }
  out += "\n";

  // ---- Per-view analysis. ------------------------------------------------
  const std::vector<std::string> names = analyzer.ViewNames();
  for (const std::string& name : names) {
    VIEWCAP_ASSIGN_OR_RETURN(const View* view, analyzer.GetView(name));
    out += StrCat("## View `", name, "`\n\n");
    QuerySet set = QuerySet::FromView(*view);

    out += "| relation | defining query | rows (reduced) | components |"
           " redundant | simple |\n";
    out += "|---|---|---|---|---|---|\n";
    for (std::size_t i = 0; i < view->size(); ++i) {
      const ViewDefinition& d = view->definitions()[i];
      const Tableau& reduced = engine.Representative(engine.Intern(d.tableau));
      VIEWCAP_ASSIGN_OR_RETURN(
          RedundancyResult redundancy,
          IsRedundant(engine, set, i, options.limits));
      VIEWCAP_ASSIGN_OR_RETURN(
          SimplicityResult simplicity,
          IsSimple(engine, &catalog, set, i, options.limits));
      auto verdict = [](bool yes, bool budget) {
        return std::string(yes ? "yes" : "no") +
               (budget ? " (budget)" : "");
      };
      out += StrCat(
          "| `", catalog.RelationName(d.rel), "` | `",
          ToString(*d.query, catalog), "` | ", d.tableau.size(), " (",
          reduced.size(), ") | ", ConnectedComponents(reduced).size(),
          " | ",
          verdict(redundancy.redundant,
                  redundancy.membership.budget_exhausted),
          " | ",
          verdict(simplicity.simple,
                  simplicity.membership.budget_exhausted),
          " |\n");
    }
    out += StrCat("\nNonredundant-equivalent size bound (Lemma 3.1.6): ",
                  NonredundantSizeBound(engine, set), "\n\n");

    if (options.include_normal_forms) {
      VIEWCAP_ASSIGN_OR_RETURN(
          SimplifyOutcome simplified,
          Simplify(engine, &catalog, *view, options.limits));
      out += StrCat("Simplified normal form (", simplified.view.size(),
                    " definitions, ", simplified.rounds, " rounds",
                    simplified.inconclusive ? ", budget-limited" : "",
                    "):\n\n");
      for (const ViewDefinition& d : simplified.view.definitions()) {
        out += StrCat("* `", ToString(*d.query, catalog), "`\n");
      }
      out += "\n";
    }

    if (options.capacity_leaves > 0) {
      CapacityOracle oracle(&engine, *view, options.limits);
      VIEWCAP_ASSIGN_OR_RETURN(
          std::vector<CapacityOracle::CapacityEntry> entries,
          oracle.EnumerateCapacity(options.capacity_leaves,
                                   options.capacity_entries));
      out += StrCat("Capacity fragment (<= ", options.capacity_leaves,
                    " leaves): ", entries.size(),
                    " distinct query classes\n\n");
    }
  }

  // ---- Lattice. -----------------------------------------------------------
  if (options.include_lattice && names.size() > 1) {
    out += "## Pairwise dominance\n\n";
    std::string lattice;
    VIEWCAP_ASSIGN_OR_RETURN(
        auto entries, analyzer.CompareAllViews(options.limits, &lattice));
    (void)entries;
    out += lattice;
    out += "\n";
  }

  if (options.include_engine_stats) {
    out += RenderEngineStats(analyzer.engine_stats());
  }
  return out;
}

}  // namespace viewcap
