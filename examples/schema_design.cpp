// schema_design: using redundancy elimination (Section 3) and the
// simplified normal form (Section 4) as a view-design advisor.
//
// The scenario is the reconstruction of the paper's Section 4.1 worked
// example (see EXPERIMENTS.md): a staffing database
//   e(A, B)  -- employee A works in bureau B
//   f(B, C)  -- bureau B serves city C
//   g(A)     -- employees with a field certification
// with a view exposing
//   S := e * f                 (who works where, serving which city)
//   T := pi{A,C}(e * f) * g    (certified employees and the cities they
//                               can be dispatched to)
// S decomposes on its own; T does not — but in the presence of S it does,
// which only the inter-relational analysis of Section 4 can discover.
#include <iostream>

#include "core/viewcap.h"

int main() {
  viewcap::Analyzer analyzer;
  viewcap::Status st = analyzer.Load(R"(
    schema { e(A, B); f(B, C); g(A); }
    view Dispatch {
      S := e * f;
      T := pi{A,C}(e * f) * g;
    }
  )");
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  viewcap::Catalog& catalog = analyzer.catalog();
  viewcap::Engine engine(&catalog);
  const viewcap::View* view = analyzer.GetView("Dispatch").value();
  std::cout << "== Input view ==\n" << view->ToString() << "\n";

  // --- Redundancy analysis (Section 3.1). -------------------------------
  viewcap::QuerySet set = viewcap::QuerySet::FromView(*view);
  std::cout << "== Redundancy analysis ==\n";
  for (std::size_t i = 0; i < set.size(); ++i) {
    auto result = viewcap::IsRedundant(engine, set, i);
    std::cout << "  "
              << catalog.RelationName(view->definitions()[i].rel) << ": "
              << (result->redundant ? "REDUNDANT" : "nonredundant") << "\n";
  }
  std::cout << "  bound on any nonredundant equivalent's size: "
            << viewcap::NonredundantSizeBound(engine, set) << "\n\n";

  // --- Simplicity analysis (Section 4.1). -------------------------------
  std::cout << "== Simplicity analysis ==\n";
  for (std::size_t i = 0; i < set.size(); ++i) {
    auto result = viewcap::IsSimple(engine, &catalog, set, i);
    std::cout << "  "
              << catalog.RelationName(view->definitions()[i].rel) << ": "
              << (result->simple ? "simple" : "DECOMPOSABLE");
    if (!result->simple && result->membership.witness != nullptr) {
      std::cout << "  (reconstructed by "
                << ToString(*result->membership.witness, catalog) << ")";
    }
    std::cout << "\n";
  }

  // --- Normalize (Theorem 4.1.3). ---------------------------------------
  std::string report;
  auto simplified = analyzer.SimplifyView("Dispatch", {}, &report);
  if (!simplified.ok()) {
    std::cerr << simplified.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\n== Simplified normal form (unique up to renaming) ==\n"
            << report;

  // --- Certify the result. ----------------------------------------------
  // Each check gets an engine of its own, so neither is answered from
  // verdicts the analysis above left in `engine`.
  viewcap::Engine equivalence_engine(&catalog);
  viewcap::Engine normal_form_engine(&catalog);
  auto equivalent =
      viewcap::AreEquivalent(equivalence_engine, *view, simplified->view);
  bool is_simplified =
      viewcap::IsSimplifiedView(normal_form_engine, &catalog,
                                simplified->view)
          .value();
  std::cout << "\nequivalent to the input : "
            << (equivalent->equivalent ? "yes" : "NO (bug)") << "\n";
  std::cout << "in normal form          : "
            << (is_simplified ? "yes" : "NO (bug)") << "\n";
  std::cout << "definitions             : " << view->size() << " -> "
            << simplified->view.size()
            << "  (Theorem 4.2.3: the normal form is the largest\n"
               "                           nonredundant equivalent — its "
               "queries are the simplest)\n";
  return equivalent->equivalent && is_simplified ? 0 : 1;
}
