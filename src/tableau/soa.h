// Flat structure-of-arrays template encoding (DESIGN.md, "Flat template
// encoding").
//
// The Section 2.4 kernels spend their time walking TaggedTuple/Symbol
// structures: every candidate probe chases a Tuple's vector, hashes a
// 64-bit Symbol into an unordered_map and allocates an undo trail. The
// SoaTemplate lowers a Tableau once into contiguous dense-id arrays so the
// homomorphism kernel (tableau/hom_kernel.h) runs over plain int32_t
// loads, flat-array bindings and precomputed masks instead: rows are
// fixed-stride symbol-id spans grouped by relation tag.
//
// The encoding is lossless and order-preserving: SoA row i is Tableau row
// i (rows of a Tableau are already sorted by (rel, tuple), so grouping by
// tag never reorders them), and dense symbol ids decode back to the exact
// Symbol values. That is what keeps kernel verdicts and witnesses
// bit-identical to the legacy pointer-walking search.
#ifndef VIEWCAP_TABLEAU_SOA_H_
#define VIEWCAP_TABLEAU_SOA_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tableau/tableau.h"

namespace viewcap {

/// Dense symbol id local to one SoaTemplate: symbols of the template
/// renumbered into [0, num_symbols), distinguished symbols first (their
/// ids are [0, num_distinguished)) in sorted Symbol order, then
/// nondistinguished symbols in sorted order. -1 marks "no symbol" slots.
using DenseSymbolId = std::int32_t;

inline constexpr DenseSymbolId kNoDenseSymbol = -1;

/// One relation-tag group of rows: templates keep rows sorted by
/// (rel, tuple), so each tag's rows form one contiguous row range.
struct SoaRowGroup {
  RelId rel = kInvalidRel;
  std::int32_t begin = 0;  ///< First row index of the group.
  std::int32_t end = 0;    ///< One past the last row index.
};

/// A Tableau lowered to flat arrays. Plain data, freely copyable; built
/// once per template (the engine caches one per interned class) and read
/// concurrently by any number of kernel searches.
class SoaTemplate {
 public:
  SoaTemplate() = default;

  /// Lowers `t`. Row i of the encoding is row i of `t`.
  static SoaTemplate Lower(const Tableau& t);

  std::int32_t num_rows() const { return num_rows_; }
  /// Universe width: symbols per row (rows are tuples over the full
  /// universe, so every row has the same stride).
  std::int32_t width() const { return width_; }
  std::int32_t num_symbols() const {
    return static_cast<std::int32_t>(dense_to_symbol_.size());
  }
  std::int32_t num_distinguished() const { return num_distinguished_; }

  bool IsDistinguished(DenseSymbolId id) const {
    return id < num_distinguished_;
  }

  /// Row-major cell array: row i occupies [i * width, (i + 1) * width).
  const DenseSymbolId* row(std::int32_t i) const {
    return cells_.data() + static_cast<std::size_t>(i) * width_;
  }
  const std::vector<DenseSymbolId>& cells() const { return cells_; }

  RelId row_rel(std::int32_t i) const { return row_rels_[i]; }

  /// Tag groups in ascending RelId order (row order is untouched).
  const std::vector<SoaRowGroup>& groups() const { return groups_; }

  /// The group covering relation `rel`, or nullptr when no row has that
  /// tag (binary search over the sorted groups).
  const SoaRowGroup* GroupFor(RelId rel) const;

  /// Per-row bitset of columns holding a distinguished symbol, packed 64
  /// columns per word with `dist_words()` words per row.
  const std::uint64_t* dist_mask(std::int32_t i) const {
    return dist_masks_.data() + static_cast<std::size_t>(i) * dist_words_;
  }
  std::int32_t dist_words() const { return dist_words_; }

  /// View into the shared signature pool: one contiguous sorted-unique
  /// run per symbol.
  struct SigSpan {
    const std::uint64_t* begin;
    const std::uint64_t* end;
  };

  /// Occurrence signature of a dense symbol: the sorted, deduplicated
  /// list of (rel, column) contexts the symbol appears in, packed as
  /// rel * width + column. Signatures drive the unification prune: a
  /// valuation maps every row onto a same-tagged row, so f(s) must occur
  /// in every context s occurs in (the target's signature must contain
  /// the source's).
  SigSpan signature(DenseSymbolId id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return {sig_pool_.data() + sig_begin_[i],
            sig_pool_.data() + sig_begin_[i + 1]};
  }

  /// Signature length (context count) of a dense symbol — the size of
  /// signature(id). The candidate filter compares lengths before the
  /// subset test: a longer needle cannot be contained.
  std::int32_t sig_len(DenseSymbolId id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return sig_begin_[i + 1] - sig_begin_[i];
  }

  /// Decodes a dense id back to the original Symbol.
  const Symbol& symbol(DenseSymbolId id) const {
    return dense_to_symbol_[static_cast<std::size_t>(id)];
  }

 private:
  std::int32_t num_rows_ = 0;
  std::int32_t width_ = 0;
  std::int32_t num_distinguished_ = 0;
  std::int32_t dist_words_ = 0;
  std::vector<DenseSymbolId> cells_;       // num_rows * width, row-major.
  std::vector<RelId> row_rels_;            // num_rows.
  std::vector<SoaRowGroup> groups_;        // Ascending RelId.
  std::vector<std::uint64_t> dist_masks_;  // num_rows * dist_words.
  std::vector<Symbol> dense_to_symbol_;    // num_symbols.
  // Signature arena: symbol id's contexts occupy
  // sig_pool_[sig_begin_[id], sig_begin_[id + 1]), sorted unique. One
  // flat pool instead of per-symbol vectors keeps Lower allocation-lean.
  std::vector<std::uint64_t> sig_pool_;
  std::vector<std::int32_t> sig_begin_;  // num_symbols + 1.
};

/// True when the signature `needle` is contained in `haystack` (both
/// sorted unique). The kernel's candidate prune; the vector overload
/// serves the legacy oracle's map-built signatures.
bool SignatureSubset(const std::vector<std::uint64_t>& needle,
                     const std::vector<std::uint64_t>& haystack);

inline bool SignatureSubset(SoaTemplate::SigSpan needle,
                            SoaTemplate::SigSpan haystack) {
  return std::includes(haystack.begin, haystack.end, needle.begin,
                       needle.end);
}

}  // namespace viewcap

#endif  // VIEWCAP_TABLEAU_SOA_H_
