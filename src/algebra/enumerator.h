// Systematic enumeration of PJ expressions over a fixed set of relation
// names, by leaf budget. This is the engine behind the decision procedures
// of Section 2.4: it explores the same space as the J_k template
// enumeration of Lemma 2.4.9, organized by expressions (every expression
// template arises from Algorithm 2.1.1, and an expression with m leaf
// occurrences yields a template with at most m rows).
#ifndef VIEWCAP_ALGEBRA_ENUMERATOR_H_
#define VIEWCAP_ALGEBRA_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "algebra/expr.h"

namespace viewcap {

/// Budgets for the bounded enumerations implementing the paper's decision
/// procedures (Lemma 2.4.10 and its users). The leaf budget defaults to
/// the reduced row count of the query under test — the bound Lemma 2.4.8
/// establishes for the needed construction — plus `extra_leaves` slack;
/// see DESIGN.md for the completeness discussion.
struct SearchLimits {
  /// Extra leaves beyond the Lemma 2.4.8 row bound.
  std::size_t extra_leaves = 0;
  /// Hard cap on the leaf budget regardless of the query's size.
  std::size_t max_leaves = 10;
  /// Cap on candidate expressions examined before giving up.
  std::size_t max_candidates = 200000;
  /// How many independent membership questions one call may run at once:
  /// equivalence's two dominance directions, a redundancy scan's
  /// leave-one-out tests and an index build's views. One membership
  /// search is always serial. 1 (the default) runs everything on the
  /// calling thread; 0 means hardware_concurrency; any other value is the
  /// total thread count including the calling thread. Verdicts and
  /// witnesses are identical for every value, so the knob is not part of
  /// the engine's verdict-cache key.
  std::size_t threads = 1;
};

/// Enumerates expressions in normalized form: a leaf, or a binary join of
/// previously-kept candidates, each optionally wrapped in one projection
/// (consecutive projections compose, so one per node is complete).
/// Associativity/commutativity duplicates are expected; the caller's visit
/// callback is responsible for semantic deduplication and decides which
/// candidates become building blocks for larger expressions.
class ExprEnumerator {
 public:
  enum class Verdict {
    kKeep,  ///< Record as a building block for larger candidates.
    kSkip,  ///< Drop (duplicate or uninteresting), keep enumerating.
    kStop,  ///< Abort the whole enumeration.
  };

  struct Stats {
    std::size_t generated = 0;  ///< Candidates passed to the callback.
    std::size_t kept = 0;       ///< Candidates the callback kept.
    bool stopped = false;       ///< Callback requested kStop.
    bool exhausted_budget = false;  ///< Hit max_candidates.
  };

  using Visitor = std::function<Verdict(const ExprPtr&)>;

  /// `names` are the permitted leaf relation names (typically a view
  /// schema). The catalog must outlive the enumerator.
  ExprEnumerator(const Catalog* catalog, std::vector<RelId> names);

  /// Visits candidates in nondecreasing leaf count up to `max_leaves`,
  /// stopping early after `max_candidates` callback invocations.
  Stats Enumerate(std::size_t max_leaves, std::size_t max_candidates,
                  const Visitor& visit) const;

 private:
  const Catalog* catalog_;
  std::vector<RelId> names_;
};

}  // namespace viewcap

#endif  // VIEWCAP_ALGEBRA_ENUMERATOR_H_
