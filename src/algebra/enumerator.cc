#include "algebra/enumerator.h"

#include "base/check.h"

namespace viewcap {

ExprEnumerator::ExprEnumerator(const Catalog* catalog,
                               std::vector<RelId> names)
    : catalog_(catalog), names_(std::move(names)) {
  for (RelId r : names_) VIEWCAP_CHECK(catalog_->HasRelation(r));
}

ExprEnumerator::Stats ExprEnumerator::Enumerate(std::size_t max_leaves,
                                                std::size_t max_candidates,
                                                const Visitor& visit) const {
  Stats stats;
  if (max_leaves == 0) return stats;
  // kept[s] holds the building blocks with exactly s leaves (index 0
  // unused).
  std::vector<std::vector<ExprPtr>> kept(max_leaves + 1);

  // Offers `candidate` itself plus every nontrivial projection of it.
  // Returns false when the enumeration must stop.
  auto offer = [&](const ExprPtr& candidate, std::size_t leaves) -> bool {
    std::vector<ExprPtr> forms{candidate};
    for (const AttrSet& x : candidate->trs().NonemptyProperSubsets()) {
      forms.push_back(Expr::MustProject(x, candidate));
    }
    for (ExprPtr& form : forms) {
      if (stats.generated >= max_candidates) {
        stats.exhausted_budget = true;
        return false;
      }
      ++stats.generated;
      switch (visit(form)) {
        case Verdict::kKeep:
          ++stats.kept;
          kept[leaves].push_back(std::move(form));
          break;
        case Verdict::kSkip:
          break;
        case Verdict::kStop:
          stats.stopped = true;
          return false;
      }
    }
    return true;
  };

  // Level 1: the relation names themselves.
  for (RelId rel : names_) {
    if (!offer(Expr::Rel(*catalog_, rel), 1)) return stats;
  }

  // Level s >= 2: binary joins of kept building blocks.
  for (std::size_t s = 2; s <= max_leaves; ++s) {
    for (std::size_t a = 1; a * 2 <= s; ++a) {
      const std::size_t b = s - a;
      for (std::size_t i = 0; i < kept[a].size(); ++i) {
        // When both operands come from the same level, joins are
        // commutative: only emit unordered pairs.
        const std::size_t j_begin = (a == b) ? i : 0;
        for (std::size_t j = j_begin; j < kept[b].size(); ++j) {
          ExprPtr join = Expr::MustJoin2(kept[a][i], kept[b][j]);
          if (!offer(join, s)) return stats;
        }
      }
    }
  }
  return stats;
}

}  // namespace viewcap
