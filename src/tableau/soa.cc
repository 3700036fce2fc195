#include "tableau/soa.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"

namespace viewcap {

namespace {

/// Dense id of `s` in the partitioned symbol table: [0, nd) holds the
/// distinguished symbols, [nd, n) the nondistinguished ones, each half in
/// sorted Symbol order (a stable partition of a sorted range keeps both
/// halves sorted), so one binary search in the right half resolves any
/// symbol.
DenseSymbolId LookupDense(const std::vector<Symbol>& table,
                          std::int32_t num_distinguished, const Symbol& s) {
  const auto begin =
      table.begin() + (s.IsDistinguished() ? 0 : num_distinguished);
  const auto end =
      s.IsDistinguished() ? table.begin() + num_distinguished : table.end();
  const auto it = std::lower_bound(begin, end, s);
  VIEWCAP_CHECK(it != end && !(s < *it));
  return static_cast<DenseSymbolId>(it - table.begin());
}

}  // namespace

SoaTemplate SoaTemplate::Lower(const Tableau& t) {
  SoaTemplate out;
  out.num_rows_ = static_cast<std::int32_t>(t.size());
  out.width_ = static_cast<std::int32_t>(t.universe().size());
  out.dist_words_ = (out.width_ + 63) / 64;

  // Dense renumbering: distinguished symbols take [0, nd) in sorted
  // Symbol order, nondistinguished the rest. Symbols() is already the
  // sorted distinct list, so one stable partition fixes the numbering.
  out.dense_to_symbol_ = t.Symbols();
  std::stable_partition(out.dense_to_symbol_.begin(),
                        out.dense_to_symbol_.end(),
                        [](const Symbol& s) { return s.IsDistinguished(); });
  out.num_distinguished_ = 0;
  for (const Symbol& s : out.dense_to_symbol_) {
    if (s.IsDistinguished()) ++out.num_distinguished_;
  }
  const std::size_t num_symbols = out.dense_to_symbol_.size();

  const std::size_t num_cells =
      static_cast<std::size_t>(out.num_rows_) * out.width_;
  out.cells_.reserve(num_cells);
  out.row_rels_.reserve(t.size());
  out.dist_masks_.assign(
      static_cast<std::size_t>(out.num_rows_) * out.dist_words_, 0);
  for (std::int32_t i = 0; i < out.num_rows_; ++i) {
    const TaggedTuple& row = t.rows()[static_cast<std::size_t>(i)];
    out.row_rels_.push_back(row.rel);
    for (std::int32_t k = 0; k < out.width_; ++k) {
      const Symbol& s = row.tuple.ValueAt(static_cast<std::size_t>(k));
      out.cells_.push_back(
          LookupDense(out.dense_to_symbol_, out.num_distinguished_, s));
      if (s.IsDistinguished()) {
        out.dist_masks_[static_cast<std::size_t>(i) * out.dist_words_ +
                        k / 64] |= std::uint64_t{1} << (k % 64);
      }
    }
  }

  // Signatures in one flat arena: count occurrences per symbol, prefix-
  // sum into run offsets, fill, then sort + dedup each run in place
  // (compaction copies forward, so runs only ever move left).
  out.sig_begin_.assign(num_symbols + 1, 0);
  for (const DenseSymbolId id : out.cells_) {
    ++out.sig_begin_[static_cast<std::size_t>(id) + 1];
  }
  std::partial_sum(out.sig_begin_.begin(), out.sig_begin_.end(),
                   out.sig_begin_.begin());
  out.sig_pool_.resize(num_cells);
  {
    std::vector<std::int32_t> cursor(out.sig_begin_.begin(),
                                     out.sig_begin_.end() - 1);
    std::size_t cell = 0;
    for (std::int32_t i = 0; i < out.num_rows_; ++i) {
      const std::uint64_t rel_base =
          static_cast<std::uint64_t>(out.row_rels_[i]) *
          static_cast<std::uint64_t>(out.width_);
      for (std::int32_t k = 0; k < out.width_; ++k, ++cell) {
        const DenseSymbolId id = out.cells_[cell];
        out.sig_pool_[cursor[static_cast<std::size_t>(id)]++] =
            rel_base + static_cast<std::uint64_t>(k);
      }
    }
  }
  {
    std::int32_t write = 0;
    for (std::size_t id = 0; id < num_symbols; ++id) {
      const std::int32_t begin = out.sig_begin_[id];
      const std::int32_t end = out.sig_begin_[id + 1];
      std::sort(out.sig_pool_.begin() + begin, out.sig_pool_.begin() + end);
      out.sig_begin_[id] = write;
      for (std::int32_t r = begin; r < end; ++r) {
        if (r > begin && out.sig_pool_[r] == out.sig_pool_[r - 1]) continue;
        out.sig_pool_[write++] = out.sig_pool_[r];
      }
    }
    out.sig_begin_[num_symbols] = write;
    out.sig_pool_.resize(static_cast<std::size_t>(write));
  }

  // Rows of a Tableau are sorted by (rel, tuple), so each tag's rows are
  // already one contiguous range: grouping records range bounds without
  // reordering anything.
  for (std::int32_t i = 0; i < out.num_rows_; ++i) {
    if (out.groups_.empty() || out.groups_.back().rel != out.row_rels_[i]) {
      VIEWCAP_CHECK(out.groups_.empty() ||
                    out.groups_.back().rel < out.row_rels_[i]);
      out.groups_.push_back(SoaRowGroup{out.row_rels_[i], i, i + 1});
    } else {
      out.groups_.back().end = i + 1;
    }
  }
  return out;
}

const SoaRowGroup* SoaTemplate::GroupFor(RelId rel) const {
  auto it = std::lower_bound(
      groups_.begin(), groups_.end(), rel,
      [](const SoaRowGroup& g, RelId r) { return g.rel < r; });
  if (it == groups_.end() || it->rel != rel) return nullptr;
  return &*it;
}

bool SignatureSubset(const std::vector<std::uint64_t>& needle,
                     const std::vector<std::uint64_t>& haystack) {
  return std::includes(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end());
}

}  // namespace viewcap
