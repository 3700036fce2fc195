// Canonical keys for templates: deduplication up to renaming of
// nondistinguished symbols.
#ifndef VIEWCAP_TABLEAU_CANONICAL_H_
#define VIEWCAP_TABLEAU_CANONICAL_H_

#include <string>

#include "tableau/tableau.h"

namespace viewcap {

/// Returns an exact canonical key: two templates get the same key if and
/// only if they have the same universe and one becomes the other under an
/// attribute-preserving renaming of nondistinguished symbols. The key is
/// the universe's attribute ids plus the least rendering over the leaves
/// of an individualization-refinement search (McKay-Piperno, "Practical
/// graph isomorphism, II", 2014). Reduced templates realize the same
/// mapping exactly when they are isomorphic (Proposition 2.4.3 and the
/// uniqueness of cores, Section 4.2), so equal keys of cores name one
/// equivalence class.
std::string CanonicalKey(const Tableau& t);

/// Returns an isomorphic copy of `t`: every nondistinguished symbol is
/// renamed by an injective, attribute-preserving map chosen from `seed`
/// (reversed per-attribute order, ordinals offset by the seed), so distinct
/// seeds give distinct labelings of the same symbol structure, and
/// CanonicalKey(RenameNondistinguished(t, s)) == CanonicalKey(t) for every
/// seed.
Tableau RenameNondistinguished(const Tableau& t, std::uint32_t seed = 0);

}  // namespace viewcap

#endif  // VIEWCAP_TABLEAU_CANONICAL_H_
