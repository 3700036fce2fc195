// Template reduction (Proposition 2.4.4): computing the minimal equivalent
// subtemplate (the "core").
#ifndef VIEWCAP_TABLEAU_REDUCE_H_
#define VIEWCAP_TABLEAU_REDUCE_H_

#include "tableau/tableau.h"

namespace viewcap {

struct HomScratch;

/// Returns a reduced template S with S contained in T and S == T. A row is
/// droppable exactly when a homomorphism from the current template into the
/// remainder exists; single-row greedy removal is complete because a
/// homomorphism into a smaller subset is also one into any superset.
/// The result is minimum-size in T's equivalence class, matching the
/// paper's definition of reduced (#(T) <= #(S) for every S == T).
Tableau Reduce(const Catalog& catalog, const Tableau& t);

/// Same, reusing caller-provided kernel scratch — the engine passes its
/// per-thread scratch so the all-n-drops sweep reuses its arenas and its
/// filter counters land in the engine stats.
Tableau Reduce(const Catalog& catalog, const Tableau& t, HomScratch& scratch);

/// True when no proper subtemplate of `t` is equivalent to `t`.
bool IsReduced(const Catalog& catalog, const Tableau& t);

}  // namespace viewcap

#endif  // VIEWCAP_TABLEAU_REDUCE_H_
