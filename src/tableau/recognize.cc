#include "tableau/recognize.h"

#include <unordered_set>

#include "algebra/enumerator.h"
#include "base/check.h"
#include "tableau/build.h"
#include "tableau/canonical.h"
#include "tableau/homomorphism.h"
#include "tableau/reduce.h"

namespace viewcap {

Result<RecognitionResult> RecognizeExpressionTemplate(
    const Catalog& catalog, const Tableau& t, SearchLimits limits) {
  VIEWCAP_RETURN_NOT_OK(t.Validate(catalog));
  const Tableau target = Reduce(catalog, t);
  const AttrSet target_trs = target.Trs();

  RecognitionResult result;
  result.leaf_budget =
      std::min(limits.max_leaves, target.size() + limits.extra_leaves);

  // Fast path: the canonical realizer pi_TRS(join of one leaf per relation
  // name). It realizes exactly the templates whose rows share symbols only
  // through attributes every same-named row exposes — the unprojected-join
  // family — and is checked by homomorphisms, so a hit is always sound.
  {
    std::vector<ExprPtr> leaves;
    for (RelId rel : target.RelNames()) {
      leaves.push_back(Expr::Rel(catalog, rel));
    }
    ExprPtr candidate = leaves.size() == 1
                            ? leaves[0]
                            : Expr::MustJoin(std::move(leaves));
    if (target_trs.SubsetOf(candidate->trs())) {
      if (candidate->trs() != target_trs) {
        candidate = Expr::MustProject(target_trs, std::move(candidate));
      }
      VIEWCAP_ASSIGN_OR_RETURN(Tableau built,
                               BuildTableau(catalog, t.universe(),
                                            *candidate));
      if (EquivalentTableaux(catalog, built, target)) {
        result.expression = std::move(candidate);
        return result;
      }
    }
  }

  // Reduced candidates deduplicated by exact canonical key: equal keys of
  // cores mean equivalent mappings, so the target's key also names the
  // class a realizer must reach.
  const std::string target_key = CanonicalKey(target);
  std::unordered_set<std::string> seen;

  ExprEnumerator enumerator(&catalog, t.RelNames());
  Status failure = Status::OK();
  ExprEnumerator::Stats stats = enumerator.Enumerate(
      result.leaf_budget, limits.max_candidates,
      [&](const ExprPtr& candidate) -> ExprEnumerator::Verdict {
        Result<Tableau> built =
            BuildTableau(catalog, t.universe(), *candidate);
        if (!built.ok()) {
          failure = built.status();
          return ExprEnumerator::Verdict::kStop;
        }
        // Subexpressions of a realizer row-embed into the target (their
        // templates occur, renamed, inside the realizer's template, which
        // maps homomorphically onto the target).
        if (!HasRowEmbedding(catalog, *built, target)) {
          return ExprEnumerator::Verdict::kSkip;
        }
        std::string key = CanonicalKey(Reduce(catalog, *built));
        if (key == target_key) {
          result.expression = candidate;
          return ExprEnumerator::Verdict::kStop;
        }
        if (!seen.insert(std::move(key)).second) {
          return ExprEnumerator::Verdict::kSkip;
        }
        return ExprEnumerator::Verdict::kKeep;
      });
  VIEWCAP_RETURN_NOT_OK(failure);
  result.candidates_tried = stats.generated;
  result.budget_exhausted = stats.exhausted_budget;
  return result;
}

Result<MinimizeResult> MinimizeExpression(const Catalog& catalog,
                                          const AttrSet& universe,
                                          const ExprPtr& expr,
                                          SearchLimits limits) {
  if (expr == nullptr) {
    return Status::InvalidArgument("expression is null");
  }
  MinimizeResult result;
  result.expression = expr;
  result.leaves_before = expr->LeafCount();
  result.leaves_after = result.leaves_before;

  VIEWCAP_ASSIGN_OR_RETURN(Tableau t,
                           BuildTableau(catalog, universe, *expr));
  Tableau core = Reduce(catalog, t);
  if (core.size() >= expr->LeafCount()) {
    // The input already has as few leaves as any realization of the core
    // can (one row per leaf): it is minimal.
    result.minimal = true;
    return result;
  }
  // Search for a realization of core size. Zero extra leaves: we only want
  // strictly smaller realizations, and a core-size one exists for every
  // expression-built template in our experience (DESIGN.md discusses the
  // bound); if none is found we keep the input.
  SearchLimits recognize_limits = limits;
  recognize_limits.extra_leaves = 0;
  VIEWCAP_ASSIGN_OR_RETURN(
      RecognitionResult recognition,
      RecognizeExpressionTemplate(catalog, core, recognize_limits));
  if (recognition.expression != nullptr &&
      recognition.expression->LeafCount() < result.leaves_before) {
    // Double-check equivalence against the original end to end.
    VIEWCAP_ASSIGN_OR_RETURN(
        Tableau found,
        BuildTableau(catalog, universe, *recognition.expression));
    if (EquivalentTableaux(catalog, found, t)) {
      result.expression = recognition.expression;
      result.leaves_after = recognition.expression->LeafCount();
      result.minimal =
          !recognition.budget_exhausted || result.leaves_after == core.size();
      return result;
    }
    return Status::Internal(
        "recognized expression failed the final equivalence check");
  }
  result.minimal = false;  // Search inconclusive; input kept.
  return result;
}

}  // namespace viewcap
