#include "tableau/evaluate.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "base/check.h"

namespace viewcap {

namespace {

// Shared backtracking driver: calls `on_solution` once per complete
// row-assignment with the current binding in scope; `on_solution` returns
// false to stop the search.
class EmbeddingSearch {
 public:
  EmbeddingSearch(const Tableau& t, const Instantiation& alpha)
      : tableau_(t), alpha_(alpha), catalog_(alpha.catalog()) {
    // Visit rows with the smallest relations first: fewer candidates near
    // the root of the search tree.
    order_.resize(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      return alpha.Get(t.rows()[a].rel).size() <
             alpha.Get(t.rows()[b].rel).size();
    });
  }

  void Run(const std::function<bool(const SymbolMap&)>& on_solution) {
    on_solution_ = &on_solution;
    stopped_ = false;
    binding_.clear();
    Recurse(0);
  }

 private:
  bool Recurse(std::size_t depth) {
    if (stopped_) return false;
    if (depth == order_.size()) {
      if (!(*on_solution_)(binding_)) stopped_ = true;
      return !stopped_;
    }
    const TaggedTuple& row = tableau_.rows()[order_[depth]];
    const AttrSet& type = catalog_.RelationScheme(row.rel);
    const Relation& rel = alpha_.Get(row.rel);
    for (const Tuple& candidate : rel) {
      std::vector<Symbol> bound;  // Trail for undo.
      bool ok = true;
      for (AttrId a : type) {
        const Symbol& var = row.tuple.At(a);
        const Symbol& value = candidate.At(a);
        auto it = binding_.find(var);
        if (it != binding_.end()) {
          if (it->second != value) {
            ok = false;
            break;
          }
        } else {
          binding_.emplace(var, value);
          bound.push_back(var);
        }
      }
      if (ok) Recurse(depth + 1);
      for (const Symbol& var : bound) binding_.erase(var);
      if (stopped_) return false;
    }
    return !stopped_;
  }

  const Tableau& tableau_;
  const Instantiation& alpha_;
  const Catalog& catalog_;
  std::vector<std::size_t> order_;
  SymbolMap binding_;
  const std::function<bool(const SymbolMap&)>* on_solution_ = nullptr;
  bool stopped_ = false;
};

}  // namespace

Relation EvaluateTableau(const Tableau& t, const Instantiation& alpha) {
  std::size_t unbounded = std::numeric_limits<std::size_t>::max();
  return *EvaluateTableauBounded(t, alpha, &unbounded);
}

std::optional<Relation> EvaluateTableauBounded(const Tableau& t,
                                               const Instantiation& alpha,
                                               std::size_t* budget) {
  const AttrSet trs = t.Trs();
  Relation out(trs);
  bool exhausted = false;
  EmbeddingSearch search(t, alpha);
  search.Run([&](const SymbolMap& binding) {
    if (*budget == 0) {
      exhausted = true;
      return false;
    }
    --*budget;
    std::vector<Symbol> values;
    values.reserve(trs.size());
    for (AttrId a : trs) {
      auto it = binding.find(Symbol::Distinguished(a));
      // Every A in TRS(T) has 0_A at a constrained position of some row
      // (condition (i)), so it is always bound here.
      VIEWCAP_DCHECK(it != binding.end());
      values.push_back(it->second);
    }
    out.Insert(Tuple(trs, std::move(values)));
    return true;
  });
  if (exhausted) return std::nullopt;
  return out;
}

std::size_t CountEmbeddings(const Tableau& t, const Instantiation& alpha) {
  std::size_t count = 0;
  EmbeddingSearch search(t, alpha);
  search.Run([&](const SymbolMap&) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace viewcap
