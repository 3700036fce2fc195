// Template evaluation: T(alpha) via alpha-embeddings (Section 2.1).
#ifndef VIEWCAP_TABLEAU_EVALUATE_H_
#define VIEWCAP_TABLEAU_EVALUATE_H_

#include <cstddef>
#include <optional>

#include "relation/instantiation.h"
#include "tableau/tableau.h"

namespace viewcap {

/// T(alpha) = { f(0_TRS(T)) | f an alpha-embedding of T }: the relation on
/// TRS(T) of images of the distinguished tuple under valuations f such that
/// (f(t))[R(eta)] is in alpha(eta) for every tagged tuple (t, eta).
///
/// Implemented as backtracking unification of each row against the tuples
/// of alpha(eta) — conjunctive-query evaluation where the template's
/// symbols are the variables. Symbols at attributes outside a row's type
/// are unconstrained by that row (condition (ii) makes them unconstrained
/// globally) and do not affect the result.
Relation EvaluateTableau(const Tableau& t, const Instantiation& alpha);

/// EvaluateTableau under a work bound that callers may share across
/// several evaluations: every alpha-embedding the search visits spends
/// one unit of `*budget`. Returns T(alpha), with the visited embeddings
/// deducted, or nullopt once the search reaches an embedding with the
/// budget already spent (the search stops there, so the cost of a
/// nullopt is bounded by the budget's worth of embeddings).
std::optional<Relation> EvaluateTableauBounded(const Tableau& t,
                                               const Instantiation& alpha,
                                               std::size_t* budget);

/// Counts alpha-embeddings restricted to the constrained symbols (mostly
/// for diagnostics and benchmarks; distinct embeddings may yield the same
/// output tuple).
std::size_t CountEmbeddings(const Tableau& t, const Instantiation& alpha);

}  // namespace viewcap

#endif  // VIEWCAP_TABLEAU_EVALUATE_H_
