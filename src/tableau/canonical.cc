#include "tableau/canonical.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "tableau/soa.h"

namespace viewcap {

namespace {

using Signatures = std::vector<std::vector<std::uint32_t>>;

// Replaces colour[i] by the rank of sigs[i] among the distinct signatures.
// Ranking by content keeps every colour a function of the template's
// structure, never of a row or symbol id. Returns the number of colours.
std::size_t Rank(const Signatures& sigs, std::vector<std::uint32_t>& colour) {
  std::vector<std::uint32_t> order(sigs.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto less = [&](std::uint32_t a, std::uint32_t b) {
    return sigs[a] < sigs[b];
  };
  std::sort(order.begin(), order.end(), less);
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && less(order[i - 1], order[i])) ++rank;
    colour[order[i]] = rank;
  }
  return order.empty() ? 0 : rank + 1;
}

// Individualization-refinement over the dense rows x columns form of a
// template. Row and symbol colours are refined against each other to a
// fixpoint; while some rows still share a colour, each row of the least
// shared colour is individualized in turn and the search recurses. Every
// leaf orders the rows completely, and the least leaf rendering is
// canonical because every step depends only on colours.
class Labeler {
 public:
  explicit Labeler(const SoaTemplate& soa)
      : soa_(soa),
        rows_(static_cast<std::size_t>(soa.num_rows())),
        width_(static_cast<std::size_t>(soa.width())) {
    // Row colours start from the tag. Each distinguished symbol gets its
    // own colour (dense ids order them by attribute); nondistinguished
    // symbols share colour 0.
    std::vector<std::uint32_t> row_colour(rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      row_colour[r] = soa.row_rel(static_cast<std::int32_t>(r));
    }
    std::vector<std::uint32_t> symbol_colour(soa.num_symbols(), 0);
    for (DenseSymbolId s = 0; s < soa.num_distinguished(); ++s) {
      symbol_colour[s] = static_cast<std::uint32_t>(s) + 1;
    }
    if (rows_ > 0) Search(std::move(row_colour), std::move(symbol_colour));
  }

  // The universe's attribute ids, then per row in the least leaf's order
  // its tag and per column "D" for the distinguished symbol or "n<i>" for
  // the i-th nondistinguished symbol by first occurrence.
  std::string Render(const AttrSet& universe) const {
    std::string out = "U";
    for (AttrId a : universe) out += std::to_string(a) + ",";
    for (std::size_t pos = 0; pos < best_.size(); pos += width_ + 1) {
      out += "|r" + std::to_string(best_[pos]) + ":";
      for (std::size_t k = 1; k <= width_; ++k) {
        const std::uint32_t name = best_[pos + k];
        out += name == 0 ? "D," : "n" + std::to_string(name - 1) + ",";
      }
    }
    return out;
  }

 private:
  // Refines both colourings to a fixpoint: a row's colour absorbs its
  // cells' colours column by column, a symbol's colour absorbs the
  // (row colour, column) places it occurs in. Returns the row colour
  // count.
  std::size_t Refine(std::vector<std::uint32_t>& row_colour,
                     std::vector<std::uint32_t>& symbol_colour) const {
    const std::vector<DenseSymbolId>& cells = soa_.cells();
    std::size_t row_count = 0, symbol_count = 0;
    for (;;) {
      Signatures row_sigs(rows_), symbol_sigs(symbol_colour.size());
      for (std::size_t r = 0; r < rows_; ++r) {
        row_sigs[r].push_back(row_colour[r]);
        for (std::size_t k = 0; k < width_; ++k) {
          row_sigs[r].push_back(symbol_colour[cells[r * width_ + k]]);
        }
      }
      const std::size_t rows_now = Rank(row_sigs, row_colour);
      // Refinement keeps the order of earlier colours, so once every row
      // has its own colour the row order is final.
      if (rows_now == rows_) return rows_now;
      for (std::size_t s = 0; s < symbol_sigs.size(); ++s) {
        symbol_sigs[s].push_back(symbol_colour[s]);
      }
      for (std::size_t p = 0; p < cells.size(); ++p) {
        symbol_sigs[cells[p]].push_back(static_cast<std::uint32_t>(
            row_colour[p / width_] * width_ + p % width_));
      }
      for (std::vector<std::uint32_t>& sig : symbol_sigs) {
        std::sort(sig.begin() + 1, sig.end());
      }
      const std::size_t symbols_now = Rank(symbol_sigs, symbol_colour);
      if (rows_now == row_count && symbols_now == symbol_count) {
        return row_count;
      }
      row_count = rows_now;
      symbol_count = symbols_now;
    }
  }

  void Search(std::vector<std::uint32_t> row_colour,
              std::vector<std::uint32_t> symbol_colour) {
    const std::size_t colours = Refine(row_colour, symbol_colour);
    if (colours == rows_) {
      Leaf(row_colour);
      return;
    }
    std::vector<std::size_t> cell_size(colours, 0);
    for (std::uint32_t c : row_colour) ++cell_size[c];
    const std::uint32_t target = static_cast<std::uint32_t>(
        std::find_if(cell_size.begin(), cell_size.end(),
                     [](std::size_t n) { return n > 1; }) -
        cell_size.begin());
    for (std::size_t r = 0; r < rows_; ++r) {
      if (row_colour[r] != target) continue;
      // Row r goes first within its colour; other colours keep their
      // relative order.
      std::vector<std::uint32_t> child(rows_);
      for (std::size_t x = 0; x < rows_; ++x) {
        child[x] = 2 * row_colour[x] + (x == r ? 0 : 1);
      }
      Search(std::move(child), symbol_colour);
    }
  }

  // Renders the rows in colour order, numbering nondistinguished symbols
  // by first occurrence (0 marks a distinguished symbol), and keeps the
  // least rendering.
  void Leaf(const std::vector<std::uint32_t>& row_colour) {
    std::vector<std::size_t> order(rows_);
    for (std::size_t r = 0; r < rows_; ++r) order[row_colour[r]] = r;
    std::vector<std::uint32_t> names(soa_.num_symbols(), 0);
    std::uint32_t next = 0;
    std::vector<std::uint32_t> rendering;
    rendering.reserve(rows_ * (width_ + 1));
    for (std::size_t r : order) {
      rendering.push_back(soa_.row_rel(static_cast<std::int32_t>(r)));
      for (std::size_t k = 0; k < width_; ++k) {
        const DenseSymbolId s = soa_.cells()[r * width_ + k];
        if (!soa_.IsDistinguished(s) && names[s] == 0) names[s] = ++next;
        rendering.push_back(names[s]);
      }
    }
    if (best_.empty() || rendering < best_) best_ = std::move(rendering);
  }

  const SoaTemplate& soa_;
  const std::size_t rows_;
  const std::size_t width_;
  std::vector<std::uint32_t> best_;  // Least leaf rendering so far.
};

}  // namespace

std::string CanonicalKey(const Tableau& t) {
  const SoaTemplate soa = SoaTemplate::Lower(t);
  return Labeler(soa).Render(t.universe());
}

Tableau RenameNondistinguished(const Tableau& t, std::uint32_t seed) {
  // Group the nondistinguished symbols by attribute (Symbols() is sorted,
  // so each group arrives in ascending ordinal order).
  std::map<AttrId, std::vector<Symbol>> by_attr;
  for (const Symbol& s : t.Symbols()) {
    if (!s.IsDistinguished()) by_attr[s.attr].push_back(s);
  }
  SymbolMap renaming;
  for (const auto& [attr, symbols] : by_attr) {
    // Reverse the per-attribute order and shift by the seed: injective per
    // attribute, ordinals >= 1, and different seeds yield different labels.
    const std::uint32_t n = static_cast<std::uint32_t>(symbols.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      renaming[symbols[i]] =
          Symbol::Nondistinguished(attr, seed + n - i);
    }
  }
  return t.Apply(renaming);
}

}  // namespace viewcap
