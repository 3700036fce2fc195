// Dense homomorphism kernel over SoaTemplate (DESIGN.md, "Flat template
// encoding").
//
// Runs the Section 2.4 backtracking searches (homomorphism, row
// embedding, isomorphism) on the flat SoA form: bindings live in a flat
// int32_t vector indexed by dense symbol id, candidate sets are
// precomputed per-relation row ranges filtered by distinguished-position
// masks and occurrence-signature unification prunes (DESIGN.md,
// "Candidate filter"), and undo trails reuse one scratch arena across
// searches. The search visits candidate rows in exactly the same
// deterministic most-constrained-first order as the legacy
// pointer-walking HomSearch (same candidate lists, same (count,
// row-index) ordering), so verdicts and decoded SymbolMap witnesses are
// bit-identical to the legacy path.
#ifndef VIEWCAP_TABLEAU_HOM_KERNEL_H_
#define VIEWCAP_TABLEAU_HOM_KERNEL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "tableau/soa.h"
#include "tableau/tableau.h"

namespace viewcap {

/// Which Section 2.4 search the kernel runs.
enum class HomMode {
  /// Proposition 2.4.1: valuation with f(0_A) = 0_A mapping every row
  /// onto a same-tagged target row.
  kHomomorphism,
  /// Row embedding: consistent symbol map onto same-tagged rows, with no
  /// constraint on distinguished symbols.
  kRowEmbedding,
  /// Isomorphism search: homomorphism that is injective and maps
  /// nondistinguished symbols to nondistinguished ones.
  kIsomorphism,
};

/// Candidate-filter activity: `invocations` counts filter calls (one per
/// source row with a matching target tag group), `rows` the candidate
/// target rows tested, `survivors` the rows that passed.
struct FilterCounters {
  std::uint64_t invocations = 0;
  std::uint64_t rows = 0;
  std::uint64_t survivors = 0;

  bool operator==(const FilterCounters&) const = default;
};

/// Reusable per-thread search state. All arrays are sized on first use
/// and only grow, so a scratch reused across many searches does no
/// steady-state allocation. Default-constructed scratch is valid.
struct HomScratch {
  /// from-dense-id -> to-dense-id, kNoDenseSymbol when unbound.
  std::vector<DenseSymbolId> binding;
  /// Injective mode: to-dense-id -> taken flag.
  std::vector<char> used;
  /// Undo trail of from-dense ids bound so far, truncated on backtrack.
  std::vector<DenseSymbolId> trail;
  /// Candidate arena: target row indices for all source rows,
  /// concatenated; source row i owns [cand_begin[i], cand_begin[i+1]).
  std::vector<std::int32_t> candidates;
  std::vector<std::int32_t> cand_begin;
  /// Source rows in most-constrained-first (count, index) order.
  std::vector<std::int32_t> order;
  /// Filter counters accumulated by every search run on this scratch;
  /// the engine zeroes them before its searches and folds them into its
  /// stats after.
  FilterCounters filter;
  /// SoaReduceSweep's full-template candidate lists, filtered once and
  /// shared by every drop's search.
  std::vector<std::int32_t> sweep_candidates;
  std::vector<std::int32_t> sweep_begin;
};

/// Runs one search from `from` into `to`, which must be lowered from
/// templates over the same universe (equal width; callers check universe
/// equality first, as the legacy entry points do). Returns true when a
/// map exists; when `witness` is non-null it receives the final binding
/// as a from-dense-id -> to-dense-id vector (kNoDenseSymbol for symbols
/// the search never bound, i.e. distinguished ids in kHomomorphism /
/// kIsomorphism modes, which map to themselves).
bool SoaSearch(const SoaTemplate& from, const SoaTemplate& to, HomMode mode,
               HomScratch& scratch, std::vector<DenseSymbolId>* witness);

/// Reduction probe (tableau/reduce.cc): is there a homomorphism of `t`
/// into `t` minus row `drop`? Runs on one shared lowering of `t` — the
/// excluded row is removed from every candidate list instead of
/// re-lowering the (n-1)-row subset per probe. Verdict-equivalent to
/// SoaHasHomomorphism(t, t.SubsetRows(all but drop)).
bool SoaReduceProbe(const SoaTemplate& t, std::int32_t drop,
                    HomScratch& scratch);

/// The all-n-drops probe behind Reduce: returns the smallest `drop` such
/// that SoaReduceProbe(t, drop, scratch) holds, or -1 when no single row
/// is redundant. The candidate filter runs ONCE over the full template;
/// each drop's lists are then derived by deleting the dropped row from
/// the prefiltered lists (the filter predicate is drop-independent — the
/// exclusion only ever removes the dropped row itself), so n probes pay
/// for one filter pass instead of n. Searches are run in ascending drop
/// order with the exact per-drop candidate lists and ordering, keeping
/// the answer bit-identical to the probe-per-drop loop.
std::int32_t SoaReduceSweep(const SoaTemplate& t, HomScratch& scratch);

/// Runs only the candidate-filter stage of a search from `from` into
/// `to`, leaving the lists in scratch.candidates / scratch.cand_begin /
/// scratch.order exactly as the search would see them. Returns the total
/// survivor count. Exposed for the filter's reference test and the
/// filter benchmarks.
std::int64_t SoaBuildCandidates(const SoaTemplate& from, const SoaTemplate& to,
                                HomMode mode, HomScratch& scratch);

/// Decodes a dense witness back into the legacy SymbolMap form: bound
/// pairs become symbol entries, then (matching HomSearch::Run) identity
/// entries are added for every distinguished symbol of `from` that is
/// not already bound.
SymbolMap DecodeWitness(const SoaTemplate& from, const SoaTemplate& to,
                        const std::vector<DenseSymbolId>& witness);

/// SoA-backed equivalents of the tableau/homomorphism.h entry points:
/// lower both sides, search, decode. Bit-identical verdicts and
/// witnesses to the legacy implementations (tests/hom_kernel_test.cc
/// asserts this differentially). The engine layer avoids the per-call
/// lowering by caching SoA forms per interned class and calling
/// SoaSearch directly.
std::optional<SymbolMap> SoaFindHomomorphism(const Tableau& from,
                                             const Tableau& to);
bool SoaHasHomomorphism(const Tableau& from, const Tableau& to);
bool SoaHasRowEmbedding(const Tableau& from, const Tableau& to);
std::optional<SymbolMap> SoaFindIsomorphism(const Tableau& a,
                                            const Tableau& b);

}  // namespace viewcap

#endif  // VIEWCAP_TABLEAU_HOM_KERNEL_H_
