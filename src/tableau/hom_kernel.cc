#include "tableau/hom_kernel.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"

namespace viewcap {

namespace {

// The candidate filter (DESIGN.md, "Candidate filter"): may source row
// `i` of `from` be bound to target row `j` of `to` (a row of the same
// tag)? Three checks, cheapest first:
//   1. distinguished cover (fix-distinguished modes): the target row is
//      distinguished in every column the source row is;
//   2. signature length: |sig(source cell)| <= |sig(target cell)| in
//      every column, a necessary condition for 3;
//   3. signature containment: sig(source cell) is a subset of
//      sig(target cell) in every column.
bool IsCandidate(const SoaTemplate& from, std::int32_t i,
                 const SoaTemplate& to, std::int32_t j,
                 bool fix_distinguished) {
  if (fix_distinguished) {
    const std::uint64_t* need = from.dist_mask(i);
    const std::uint64_t* have = to.dist_mask(j);
    for (std::int32_t w = 0; w < from.dist_words(); ++w) {
      if ((need[w] & ~have[w]) != 0) return false;
    }
  }
  const DenseSymbolId* row = from.row(i);
  const DenseSymbolId* target = to.row(j);
  for (std::int32_t k = 0; k < from.width(); ++k) {
    if (from.sig_len(row[k]) > to.sig_len(target[k])) return false;
  }
  for (std::int32_t k = 0; k < from.width(); ++k) {
    if (!SignatureSubset(from.signature(row[k]), to.signature(target[k]))) {
      return false;
    }
  }
  return true;
}

// Candidate target rows per source row: the rows of the same relation
// tag that pass IsCandidate, in ascending row order, minus
// `exclude_target_row` (>= 0) — the reduction probe's leave-one-out
// mode. Fills `cand` with the survivors and `begins` with rows+1 offsets
// into it.
void BuildLists(const SoaTemplate& from, const SoaTemplate& to,
                bool fix_distinguished, std::int32_t exclude_target_row,
                FilterCounters& counters, std::vector<std::int32_t>& cand,
                std::vector<std::int32_t>& begins) {
  cand.clear();
  begins.assign(1, 0);
  for (std::int32_t i = 0; i < from.num_rows(); ++i) {
    if (const SoaRowGroup* group = to.GroupFor(from.row_rel(i))) {
      ++counters.invocations;
      for (std::int32_t j = group->begin; j < group->end; ++j) {
        if (j == exclude_target_row) continue;
        ++counters.rows;
        if (IsCandidate(from, i, to, j, fix_distinguished)) {
          cand.push_back(j);
          ++counters.survivors;
        }
      }
    }
    begins.push_back(static_cast<std::int32_t>(cand.size()));
  }
}

// The most-constrained-first visit order over lists with offsets
// `begins`: source rows sorted by (candidate count, row index).
void OrderByCandidateCount(const std::vector<std::int32_t>& begins,
                           std::vector<std::int32_t>& order) {
  order.resize(begins.size() - 1);
  std::iota(order.begin(), order.end(), 0);
  const std::int32_t* b = begins.data();
  std::sort(order.begin(), order.end(), [b](std::int32_t x, std::int32_t y) {
    const std::int32_t cx = b[x + 1] - b[x];
    const std::int32_t cy = b[y + 1] - b[y];
    if (cx != cy) return cx < cy;
    return x < y;
  });
}

// One search instance over prepared scratch. The candidate lists, visit
// order and per-row unification loop mirror legacy HomSearch exactly so
// the first witness found is the same map.
class KernelSearch {
 public:
  /// `exclude_target_row` (when >= 0) removes one target row from every
  /// candidate list — the reduction probe's "search t into t minus one
  /// row" without lowering the subset template.
  KernelSearch(const SoaTemplate& from, const SoaTemplate& to, HomMode mode,
               HomScratch& scratch, std::int32_t exclude_target_row = -1)
      : from_(from),
        to_(to),
        fix_distinguished_(mode != HomMode::kRowEmbedding),
        injective_(mode == HomMode::kIsomorphism),
        exclude_target_row_(exclude_target_row),
        s_(scratch) {}

  bool Run() {
    BuildLists(from_, to_, fix_distinguished_, exclude_target_row_,
               s_.filter, s_.candidates, s_.cand_begin);
    OrderByCandidateCount(s_.cand_begin, s_.order);
    return RunPrepared(s_.candidates.data(), s_.cand_begin.data(),
                       s_.order.data());
  }

  /// Backtracking over externally prepared lists: `cand_begin` holds
  /// rows+1 offsets into `candidates`, `order` the visit order.
  /// SoaReduceSweep calls this with lists derived from one shared filter
  /// pass.
  bool RunPrepared(const std::int32_t* candidates,
                   const std::int32_t* cand_begin,
                   const std::int32_t* order) {
    cand_ = candidates;
    cand_begin_ = cand_begin;
    order_ = order;
    s_.binding.assign(static_cast<std::size_t>(from_.num_symbols()),
                      kNoDenseSymbol);
    if (injective_) {
      s_.used.assign(static_cast<std::size_t>(to_.num_symbols()), 0);
    }
    s_.trail.clear();
    return Recurse(0);
  }

 private:
  bool Recurse(std::int32_t depth) {
    if (depth == from_.num_rows()) return true;
    const std::int32_t i = order_[static_cast<std::size_t>(depth)];
    const DenseSymbolId* row = from_.row(i);
    const std::int32_t cand_end = cand_begin_[static_cast<std::size_t>(i) + 1];
    for (std::int32_t c = cand_begin_[static_cast<std::size_t>(i)];
         c < cand_end; ++c) {
      const std::int32_t j = cand_[static_cast<std::size_t>(c)];
      const DenseSymbolId* target = to_.row(j);
      const std::size_t trail_start = s_.trail.size();
      bool ok = true;
      for (std::int32_t k = 0; k < from_.width(); ++k) {
        const DenseSymbolId var = row[k];
        const DenseSymbolId value = target[k];
        if (fix_distinguished_ && from_.IsDistinguished(var)) {
          // Column k holds only symbols of attribute A_k, so "value is
          // distinguished" already means value == 0_{A_k} == var.
          if (!to_.IsDistinguished(value)) {
            ok = false;
            break;
          }
          continue;
        }
        const DenseSymbolId bound = s_.binding[static_cast<std::size_t>(var)];
        if (bound != kNoDenseSymbol) {
          if (bound != value) {
            ok = false;
            break;
          }
        } else {
          if (injective_ && (to_.IsDistinguished(value) ||
                             s_.used[static_cast<std::size_t>(value)] != 0)) {
            ok = false;
            break;
          }
          s_.binding[static_cast<std::size_t>(var)] = value;
          if (injective_) s_.used[static_cast<std::size_t>(value)] = 1;
          s_.trail.push_back(var);
        }
      }
      if (ok && Recurse(depth + 1)) return true;
      while (s_.trail.size() > trail_start) {
        const DenseSymbolId var = s_.trail.back();
        s_.trail.pop_back();
        DenseSymbolId& slot = s_.binding[static_cast<std::size_t>(var)];
        if (injective_) s_.used[static_cast<std::size_t>(slot)] = 0;
        slot = kNoDenseSymbol;
      }
    }
    return false;
  }

  const SoaTemplate& from_;
  const SoaTemplate& to_;
  bool fix_distinguished_;
  bool injective_;
  std::int32_t exclude_target_row_;
  HomScratch& s_;
  // Prepared candidate lists the recursion walks; set by Run /
  // RunPrepared.
  const std::int32_t* cand_ = nullptr;
  const std::int32_t* cand_begin_ = nullptr;
  const std::int32_t* order_ = nullptr;
};

}  // namespace

bool SoaSearch(const SoaTemplate& from, const SoaTemplate& to, HomMode mode,
               HomScratch& scratch, std::vector<DenseSymbolId>* witness) {
  VIEWCAP_CHECK(from.width() == to.width() &&
                "SoaSearch: templates over different universes");
  KernelSearch search(from, to, mode, scratch);
  if (!search.Run()) return false;
  if (witness != nullptr) *witness = scratch.binding;
  return true;
}

bool SoaReduceProbe(const SoaTemplate& t, std::int32_t drop,
                    HomScratch& scratch) {
  // Homomorphism of t into t minus row `drop` over one shared lowering.
  // Target-side signatures come from the full template, so the
  // unification prune is a (sound) overapproximation of the subset's —
  // the search is complete either way, and the reduction loop only
  // consumes the verdict.
  KernelSearch search(t, t, HomMode::kHomomorphism, scratch, drop);
  return search.Run();
}

std::int32_t SoaReduceSweep(const SoaTemplate& t, HomScratch& scratch) {
  const std::int32_t rows = t.num_rows();
  // One filter pass over the full template (no excluded row); each
  // drop's candidate lists are the full lists minus the dropped target
  // row, because the filter predicate never depends on the exclusion —
  // excluding row d only removes d itself from every list.
  const auto& full_cand = scratch.sweep_candidates;
  const auto& full_begin = scratch.sweep_begin;
  BuildLists(t, t, /*fix_distinguished=*/true, /*exclude_target_row=*/-1,
             scratch.filter, scratch.sweep_candidates, scratch.sweep_begin);
  for (std::int32_t drop = 0; drop < rows; ++drop) {
    auto& cand = scratch.candidates;
    auto& begins = scratch.cand_begin;
    cand.clear();
    begins.clear();
    begins.push_back(0);
    for (std::int32_t i = 0; i < rows; ++i) {
      for (std::int32_t c = full_begin[static_cast<std::size_t>(i)];
           c < full_begin[static_cast<std::size_t>(i) + 1]; ++c) {
        const std::int32_t j = full_cand[static_cast<std::size_t>(c)];
        if (j != drop) cand.push_back(j);
      }
      begins.push_back(static_cast<std::int32_t>(cand.size()));
    }
    // Most-constrained-first order over the derived counts — identical
    // to what a per-drop filter pass would have produced.
    OrderByCandidateCount(begins, scratch.order);
    KernelSearch search(t, t, HomMode::kHomomorphism, scratch, drop);
    if (search.RunPrepared(cand.data(), begins.data(),
                           scratch.order.data())) {
      return drop;
    }
  }
  return -1;
}

std::int64_t SoaBuildCandidates(const SoaTemplate& from, const SoaTemplate& to,
                                HomMode mode, HomScratch& scratch) {
  VIEWCAP_CHECK(from.width() == to.width() &&
                "SoaBuildCandidates: templates over different universes");
  BuildLists(from, to, mode != HomMode::kRowEmbedding,
             /*exclude_target_row=*/-1, scratch.filter, scratch.candidates,
             scratch.cand_begin);
  OrderByCandidateCount(scratch.cand_begin, scratch.order);
  return static_cast<std::int64_t>(scratch.candidates.size());
}

SymbolMap DecodeWitness(const SoaTemplate& from, const SoaTemplate& to,
                        const std::vector<DenseSymbolId>& witness) {
  SymbolMap map;
  map.reserve(static_cast<std::size_t>(from.num_symbols()));
  for (std::int32_t d = 0; d < from.num_symbols(); ++d) {
    const DenseSymbolId value = witness[static_cast<std::size_t>(d)];
    if (value != kNoDenseSymbol) map.emplace(from.symbol(d), to.symbol(value));
  }
  // Identity on distinguished symbols, without overwriting entries the
  // embedding-mode search bound — the exact completion HomSearch::Run
  // performs.
  for (std::int32_t d = 0; d < from.num_distinguished(); ++d) {
    map.emplace(from.symbol(d), from.symbol(d));
  }
  return map;
}

namespace {

HomScratch& LocalScratch() {
  thread_local HomScratch scratch;
  return scratch;
}

}  // namespace

namespace {

/// Necessary condition for a distinguished-fixing map, checked before
/// paying for the lowerings: f(0_A) = 0_A, so every attribute whose
/// distinguished symbol occurs in `from` must occur distinguished in
/// `to` as well. Restores the legacy constructor's instant failure on
/// projection-severed targets.
bool TrsCompatible(const Tableau& from, const Tableau& to) {
  return from.Trs().SubsetOf(to.Trs());
}

}  // namespace

std::optional<SymbolMap> SoaFindHomomorphism(const Tableau& from,
                                             const Tableau& to) {
  if (from.universe() != to.universe()) return std::nullopt;
  if (!TrsCompatible(from, to)) return std::nullopt;
  const SoaTemplate sf = SoaTemplate::Lower(from);
  const SoaTemplate st = SoaTemplate::Lower(to);
  HomScratch& scratch = LocalScratch();
  std::vector<DenseSymbolId> witness;
  if (!SoaSearch(sf, st, HomMode::kHomomorphism, scratch, &witness)) {
    return std::nullopt;
  }
  return DecodeWitness(sf, st, witness);
}

bool SoaHasHomomorphism(const Tableau& from, const Tableau& to) {
  if (from.universe() != to.universe()) return false;
  if (!TrsCompatible(from, to)) return false;
  const SoaTemplate sf = SoaTemplate::Lower(from);
  const SoaTemplate st = SoaTemplate::Lower(to);
  return SoaSearch(sf, st, HomMode::kHomomorphism, LocalScratch(), nullptr);
}

bool SoaHasRowEmbedding(const Tableau& from, const Tableau& to) {
  if (from.universe() != to.universe()) return false;
  const SoaTemplate sf = SoaTemplate::Lower(from);
  const SoaTemplate st = SoaTemplate::Lower(to);
  return SoaSearch(sf, st, HomMode::kRowEmbedding, LocalScratch(), nullptr);
}

std::optional<SymbolMap> SoaFindIsomorphism(const Tableau& a,
                                            const Tableau& b) {
  if (a.universe() != b.universe()) return std::nullopt;
  if (a.size() != b.size()) return std::nullopt;
  if (!TrsCompatible(a, b)) return std::nullopt;
  const SoaTemplate sa = SoaTemplate::Lower(a);
  const SoaTemplate sb = SoaTemplate::Lower(b);
  if (sa.num_symbols() != sb.num_symbols()) return std::nullopt;
  HomScratch& scratch = LocalScratch();
  std::vector<DenseSymbolId> witness;
  if (!SoaSearch(sa, sb, HomMode::kIsomorphism, scratch, &witness)) {
    return std::nullopt;
  }
  return DecodeWitness(sa, sb, witness);
}

}  // namespace viewcap
