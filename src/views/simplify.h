// Simplified views: the Section 4 normal form.
#ifndef VIEWCAP_VIEWS_SIMPLIFY_H_
#define VIEWCAP_VIEWS_SIMPLIFY_H_

#include "views/capacity.h"

namespace viewcap {

/// The proper projections of a template: pi_X o T for every nonempty X
/// properly contained in TRS(T) (Section 4.1), as fresh-handle query-set
/// members (handles minted in `catalog`).
Result<std::vector<QuerySet::Member>> ProperProjectionMembers(
    Catalog* catalog, const Tableau& t);

/// Only the maximal proper projections (|X| = |TRS(T)| - 1). Every proper
/// projection of T is a projection of a maximal one (projections compose),
/// so swapping the full set for this one preserves closures; the simplicity
/// test and Simplify use it to keep the search small.
Result<std::vector<QuerySet::Member>> MaximalProperProjectionMembers(
    Catalog* catalog, const Tableau& t);

/// Outcome of a simplicity test for one member of a query set.
struct SimplicityResult {
  /// True when the member is simple: it is NOT in the closure of the other
  /// members together with its own proper projections (Section 4.1).
  bool simple = false;
  /// The underlying membership evidence (witness when not simple).
  MembershipResult membership;
};

/// Is member `index` of `set` simple in the set? The membership search
/// shares `engine` (which must be over `catalog`); the projection handles
/// are minted fresh per call, so verdicts are not cached across calls, but
/// the interned queries, reduced expansions of shared handles and pair
/// predicates are.
Result<SimplicityResult> IsSimple(Engine& engine, Catalog* catalog,
                                  const QuerySet& set, std::size_t index,
                                  SearchLimits limits = {});

/// True when every definition of `view` is simple among the defining
/// queries, i.e. the view is in normal form. All member tests share
/// `engine`.
Result<bool> IsSimplifiedView(Engine& engine, Catalog* catalog,
                              const View& view, SearchLimits limits = {},
                              bool* inconclusive = nullptr);

/// Outcome of normalization.
struct SimplifyOutcome {
  /// The equivalent simplified view (Theorem 4.1.3). Its relation names are
  /// minted fresh ("<view name>_s<n>"); by Theorem 4.2.1 each defining
  /// query is a projection of one of the input's defining queries, and by
  /// Theorem 4.2.2 the result is unique up to renaming.
  View view;
  /// True when some membership search hit its budget.
  bool inconclusive = false;
  /// Replacement rounds performed.
  std::size_t rounds = 0;
};

/// Lemma 4.1.2 / Theorem 4.1.3: repeatedly replaces a non-simple defining
/// query by its proper projections (dropping mapping-duplicates along the
/// way) until every query is simple. A non-simple query with a
/// single-attribute TRS has no proper projections and is simply dropped —
/// non-simple then means redundant, so the closure is unchanged. Every
/// replacement round shares `engine`.
Result<SimplifyOutcome> Simplify(Engine& engine, Catalog* catalog,
                                 const View& view, SearchLimits limits = {});

/// Theorem 4.2.2's notion of sameness: the views' defining query multisets
/// match one-to-one under mapping equivalence (relation names ignored).
/// The compatibility matrix is interned-id comparisons.
Result<bool> SameQueriesUpToRenaming(Engine& engine, const View& a,
                                     const View& b);

}  // namespace viewcap

#endif  // VIEWCAP_VIEWS_SIMPLIFY_H_
