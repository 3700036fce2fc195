// View dominance and equivalence (Sections 1.4-1.5, Theorem 2.4.12).
#ifndef VIEWCAP_VIEWS_EQUIVALENCE_H_
#define VIEWCAP_VIEWS_EQUIVALENCE_H_

#include "views/capacity.h"

namespace viewcap {

// DominanceResult is defined in engine/engine.h (the engine's dominance
// cache stores whole dominance answers) and re-exported here through
// views/capacity.h.

/// Cache key for a whole "does `v` dominate `w`" answer: the member-wise
/// exact fingerprints of both views (handles included — witnesses are
/// expressions over v's handles, and `missing` indexes w's definitions in
/// order) plus the search limits; `threads` is deliberately absent
/// (verdicts are thread-count invariant). The key contains no
/// process-local state — relation ids are catalog-load-deterministic and
/// TableauFingerprint is structural — so the persistent capacity index
/// stores dominance verdicts under this exact string (format versioned by
/// kFingerprintSchemeVersion).
std::string DominanceKeyFor(const View& v, const View& w,
                            const SearchLimits& limits);

/// Tests whether `v` dominates `w` through a shared engine: the oracle
/// over v reuses every template class and verdict the engine has already
/// seen. The views must share the underlying universe and the engine's
/// catalog.
Result<DominanceResult> Dominates(Engine& engine, const View& v,
                                  const View& w, SearchLimits limits = {});

/// Outcome of the equivalence test (Theorem 1.5.5 / 2.4.12).
struct EquivalenceResult {
  bool equivalent = false;
  bool inconclusive = false;
  DominanceResult v_over_w;  ///< Does v dominate w?
  DominanceResult w_over_v;  ///< Does w dominate v?
};

/// Theorem 2.4.12: decides whether `v` and `w` are equivalent
/// (Cap(V) = Cap(W)). Both containment directions share `engine`, so the
/// levels and expansions interned while testing Cap(W) subset Cap(V) are
/// reused by the reverse direction.
Result<EquivalenceResult> AreEquivalent(Engine& engine, const View& v,
                                        const View& w,
                                        SearchLimits limits = {});

}  // namespace viewcap

#endif  // VIEWCAP_VIEWS_EQUIVALENCE_H_
