// Quickstart: the Example 3.1.5 scenario end to end.
//
// Two working groups defined views over the same ternary relation r(A,B,C):
// one exported a single joined relation, the other two projections. Are the
// two view definitions interchangeable? Query capacity answers yes — and
// produces, for every relation of one view, the query over the other view
// that reconstructs it.
#include <cstdio>
#include <iostream>

#include "core/viewcap.h"

int main() {
  viewcap::Analyzer analyzer;
  viewcap::Status st = analyzer.Load(R"(
    schema { r(A, B, C); }

    # One relation holding the join of both projections.
    view Joined { j := pi{A,B}(r) * pi{B,C}(r); }

    # Two relations holding the projections separately.
    view Split { p_ab := pi{A,B}(r); p_bc := pi{B,C}(r); }
  )");
  if (!st.ok()) {
    std::cerr << "load failed: " << st.ToString() << "\n";
    return 1;
  }

  // --- 1. Decide equivalence (Theorem 2.4.12). -------------------------
  std::string report;
  auto equivalence =
      analyzer.CheckEquivalence("Joined", "Split", {}, &report);
  if (!equivalence.ok()) {
    std::cerr << equivalence.status().ToString() << "\n";
    return 1;
  }
  std::cout << "== View equivalence (Example 3.1.5) ==\n" << report << "\n";

  // --- 2. Ask whether a specific database query is answerable ----------
  //        through a view (Theorem 2.4.11).
  for (const char* query :
       {"pi{A,C}(pi{A,B}(r) * pi{B,C}(r))",  // Derivable from both views.
        "r",                                 // Derivable from neither.
        "pi{B}(r)"}) {
    auto answerable = analyzer.CheckAnswerable("Split", query, {}, &report);
    if (!answerable.ok()) {
      std::cerr << answerable.status().ToString() << "\n";
      return 1;
    }
    std::cout << "query " << query << " through Split: " << report;
  }

  // --- 3. Run a view query against a concrete database. ----------------
  // Surrogates (Theorem 1.4.2) mean a view query can always be answered by
  // the base engine directly.
  viewcap::Catalog& catalog = analyzer.catalog();
  viewcap::RelId r = catalog.FindRelation("r").value();
  viewcap::AttrId a = catalog.FindAttribute("A").value();
  viewcap::AttrId b = catalog.FindAttribute("B").value();
  viewcap::AttrId c = catalog.FindAttribute("C").value();
  const viewcap::AttrSet& scheme = catalog.RelationScheme(r);

  viewcap::Relation data(scheme);
  auto tuple = [&](std::uint32_t va, std::uint32_t vb, std::uint32_t vc) {
    return viewcap::Tuple(scheme,
                          {viewcap::Symbol::Nondistinguished(a, va),
                           viewcap::Symbol::Nondistinguished(b, vb),
                           viewcap::Symbol::Nondistinguished(c, vc)});
  };
  data.Insert(tuple(1, 1, 1));
  data.Insert(tuple(2, 1, 3));
  data.Insert(tuple(2, 2, 2));
  viewcap::Instantiation alpha(&catalog);
  if (auto set = alpha.Set(r, data); !set.ok()) {
    std::cerr << set.ToString() << "\n";
    return 1;
  }

  const viewcap::View* split = analyzer.GetView("Split").value();
  viewcap::ExprPtr view_query =
      viewcap::ParseExpr(catalog, "pi{A,C}(p_ab * p_bc)").value();
  viewcap::ExprPtr surrogate = split->Surrogate(view_query).value();
  std::cout << "\n== Running a view query ==\n";
  std::cout << "view query    : " << ToString(*view_query, catalog) << "\n";
  std::cout << "surrogate     : " << ToString(*surrogate, catalog) << "\n";
  std::cout << "result over r = {(1,1,1),(2,1,3),(2,2,2)}:\n"
            << Evaluate(*surrogate, alpha).ToString(catalog);

  // The two evaluation routes agree (Theorem 1.4.2).
  viewcap::Instantiation induced = split->Induce(alpha);
  if (Evaluate(*view_query, induced) != Evaluate(*surrogate, alpha)) {
    std::cerr << "surrogate mismatch (bug)\n";
    return 1;
  }
  std::cout << "\n(view-side evaluation agrees with the surrogate)\n";
  return 0;
}
