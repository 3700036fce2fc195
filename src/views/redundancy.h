// Redundancy in query sets and views (Section 3.1).
#ifndef VIEWCAP_VIEWS_REDUNDANCY_H_
#define VIEWCAP_VIEWS_REDUNDANCY_H_

#include "views/capacity.h"

namespace viewcap {

/// Outcome of a redundancy test for one member of a query set.
struct RedundancyResult {
  /// True when the member is in the closure of the others (i.e. redundant).
  bool redundant = false;
  /// The membership evidence: when redundant, `membership.witness` is an
  /// expression over the remaining handles deriving the member.
  MembershipResult membership;
};

/// Is member `index` of `set` redundant, i.e. in the closure of the other
/// members (Section 3.1)? The leave-one-out oracle shares `engine`, so
/// expansions computed for the full set (or for other leave-one-out
/// subsets — their assignments agree wherever both are defined) are
/// reused rather than recomputed.
Result<RedundancyResult> IsRedundant(Engine& engine, const QuerySet& set,
                                     std::size_t index,
                                     SearchLimits limits = {});

/// True when no member of `set` is redundant. `inconclusive` (optional out)
/// is set when some membership search hit its budget. All leave-one-out
/// tests share `engine`.
Result<bool> IsNonredundantSet(Engine& engine, const QuerySet& set,
                               SearchLimits limits = {},
                               bool* inconclusive = nullptr);

/// Outcome of redundancy elimination on a view.
struct NonredundantViewResult {
  /// The equivalent nonredundant view (Theorem 3.1.4), made of a subset of
  /// the input's definitions.
  View view;
  /// Indices of the surviving definitions in the input view.
  std::vector<std::size_t> kept;
  /// True when some search hit its budget (the result is then nonredundant
  /// only as far as the budget could see).
  bool inconclusive = false;
};

/// Theorem 3.1.4: repeatedly drops redundant (and mapping-duplicate)
/// definitions until none remains. Every round of the fixpoint shares
/// `engine`: the closure frontier explored for the full set seeds the
/// shrunken sets' searches.
Result<NonredundantViewResult> MakeNonredundant(Engine& engine,
                                                const View& view,
                                                SearchLimits limits = {});

/// The Lemma 3.1.6 bound: an integer n such that every nonredundant query
/// set with the same closure as `set` has at most n members. We use
/// n = sum over members of the reduced row count, which dominates the
/// lemma's count of construction-template relation-name occurrences.
std::size_t NonredundantSizeBound(Engine& engine, const QuerySet& set);

}  // namespace viewcap

#endif  // VIEWCAP_VIEWS_REDUNDANCY_H_
