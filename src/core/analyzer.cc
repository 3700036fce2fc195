#include "core/analyzer.h"

#include <unordered_set>

#include "algebra/eval.h"
#include "algebra/expand.h"
#include "algebra/parser.h"
#include "algebra/printer.h"
#include "base/check.h"
#include "base/source.h"
#include "base/strings.h"
#include "relation/data_parser.h"

namespace viewcap {

Status Analyzer::Load(std::string_view program) {
  VIEWCAP_ASSIGN_OR_RETURN(ParsedProgram parsed,
                           ParseProgram(*catalog_, program));
  DbSchema base = base_.Extended(*catalog_, std::move(parsed.base_relations));
  // Queries may reference the relations of previously declared views
  // (views of views, Section 1.3); they are flattened to base-level
  // queries by Lemma 1.4.1 expansion at load time, each against the view
  // relations it reads. Registered definitions are always base-level, so
  // one expansion pass reaches a fixpoint.
  ViewRelations pending;
  std::vector<View> views;
  views.reserve(parsed.views.size());
  std::unordered_set<std::string_view> names;
  for (const ParsedView& pv : parsed.views) {
    auto where = [&pv] {
      return StrCat(" (view '", pv.name, "' at ", ToString(pv.name_span), ")");
    };
    std::vector<std::pair<RelId, ExprPtr>> defs;
    defs.reserve(pv.definitions.size());
    for (const ParsedDefinition& d : pv.definitions) {
      Definitions reads;
      for (RelId rel : d.query->RelNames()) {
        const ViewRelation* read = FindViewRelation(rel, pending);
        if (read == nullptr) continue;
        if (!read->rival.empty()) {
          return Status::IllFormed(StrCat(
              "view relation '", catalog_->RelationName(rel),
              "' is defined differently by views '", read->view, "' and '",
              read->rival, "'", where()));
        }
        reads.emplace(rel, read->query);
      }
      VIEWCAP_ASSIGN_OR_RETURN(ExprPtr flattened,
                               Expand(*catalog_, d.query, reads));
      defs.push_back({d.view_rel, std::move(flattened)});
    }
    Result<View> created =
        View::Create(catalog_.get(), base, std::move(defs), pv.name);
    if (!created.ok()) {
      return Status(created.status().code(),
                    StrCat(created.status().message(), where()));
    }
    if (views_.count(pv.name) > 0 || !names.insert(pv.name).second) {
      return Status::IllFormed(StrCat("view '", pv.name, "' already defined"));
    }
    for (const ViewDefinition& d : created->definitions()) {
      Define(&pending, FindViewRelation(d.rel, pending), d, pv.name);
    }
    views.push_back(std::move(created).value());
  }
  // Every view checked: commit the base snapshot and the views.
  base_ = std::move(base);
  for (std::size_t i = 0; i < views.size(); ++i) {
    RegisterView(std::move(views[i]), parsed.views[i].name);
  }
  return Status::OK();
}

void Analyzer::Define(ViewRelations* into, const ViewRelation* prior,
                      const ViewDefinition& d, const std::string& view) {
  ViewRelation entry =
      prior != nullptr ? *prior : ViewRelation{d.query, view, ""};
  if (entry.rival.empty() && entry.query != d.query &&
      !Expr::StructurallyEqual(*entry.query, *d.query)) {
    entry.rival = view;
  }
  into->insert_or_assign(d.rel, std::move(entry));
}

const Analyzer::ViewRelation* Analyzer::FindViewRelation(
    RelId rel, const ViewRelations& pending) const {
  auto it = pending.find(rel);
  if (it != pending.end()) return &it->second;
  it = view_rels_.find(rel);
  return it != view_rels_.end() ? &it->second : nullptr;
}

void Analyzer::RegisterView(View view, const std::string& name) {
  VIEWCAP_DCHECK(views_.count(name) == 0);
  for (const ViewDefinition& d : view.definitions()) {
    auto it = view_rels_.find(d.rel);
    Define(&view_rels_, it != view_rels_.end() ? &it->second : nullptr, d,
           name);
  }
  view.set_name(name);
  views_.emplace(name, std::move(view));
  view_order_.push_back(name);
}

std::vector<std::string> Analyzer::ViewNames() const { return view_order_; }

Result<const View*> Analyzer::GetView(const std::string& name) const {
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound(StrCat("view '", name, "'"));
  }
  return &it->second;
}

Result<EquivalenceResult> Analyzer::CheckEquivalence(
    const std::string& left, const std::string& right,
    const SearchLimits& limits, std::string* report) const {
  VIEWCAP_ASSIGN_OR_RETURN(const View* v, GetView(left));
  VIEWCAP_ASSIGN_OR_RETURN(const View* w, GetView(right));
  VIEWCAP_ASSIGN_OR_RETURN(EquivalenceResult result,
                           AreEquivalent(*engine_, *v, *w, limits));
  if (report != nullptr) {
    std::string out = StrCat("equivalent(", left, ", ", right, ") = ",
                             result.equivalent ? "true" : "false",
                             result.inconclusive ? " (inconclusive)" : "",
                             "\n");
    auto describe = [&](const View& outer, const View& inner,
                        const DominanceResult& dom) {
      out += StrCat("  Cap(", inner.name(), ") subset of Cap(", outer.name(),
                    "): ", dom.dominates ? "yes" : "no", "\n");
      for (std::size_t j = 0; j < inner.size(); ++j) {
        const std::string rel_name =
            outer.catalog().RelationName(inner.definitions()[j].rel);
        if (dom.witnesses.size() > j && dom.witnesses[j] != nullptr) {
          out += StrCat("    ", rel_name, " answered by ",
                        ToString(*dom.witnesses[j], outer.catalog()), "\n");
        } else {
          out += StrCat("    ", rel_name, " NOT answerable\n");
        }
      }
    };
    describe(*v, *w, result.v_over_w);
    describe(*w, *v, result.w_over_v);
    *report = std::move(out);
  }
  return result;
}

Result<MembershipResult> Analyzer::CheckAnswerable(
    const std::string& name, const std::string& query_text,
    const SearchLimits& limits, std::string* report) const {
  VIEWCAP_ASSIGN_OR_RETURN(const View* view, GetView(name));
  VIEWCAP_ASSIGN_OR_RETURN(ExprPtr query,
                           ParseExpr(*catalog_, query_text));
  for (RelId rel : query->RelNames()) {
    if (!base_.Contains(rel)) {
      return Status::IllFormed(
          StrCat("query mentions non-base relation '",
                 catalog_->RelationName(rel), "'"));
    }
  }
  CapacityOracle oracle(engine_.get(), *view, limits);
  VIEWCAP_ASSIGN_OR_RETURN(MembershipResult result, oracle.Contains(query));
  if (report != nullptr) {
    if (result.member) {
      *report = StrCat("answerable via ", ToString(*result.witness, *catalog_),
                       "\n");
    } else {
      *report = StrCat("not answerable",
                       result.budget_exhausted ? " (search budget hit)" : "",
                       "\n");
    }
  }
  return result;
}

Result<NonredundantViewResult> Analyzer::EliminateRedundancy(
    const std::string& name, const SearchLimits& limits,
    std::string* report) {
  VIEWCAP_ASSIGN_OR_RETURN(const View* view, GetView(name));
  VIEWCAP_ASSIGN_OR_RETURN(NonredundantViewResult result,
                           MakeNonredundant(*engine_, *view, limits));
  if (report != nullptr) {
    *report = StrCat("kept ", result.kept.size(), " of ", view->size(),
                     " definitions\n", result.view.ToString());
  }
  std::string result_name = StrCat(name, "_nr");
  if (views_.count(result_name) == 0) {
    RegisterView(result.view, result_name);
  }
  return result;
}

Result<SimplifyOutcome> Analyzer::SimplifyView(const std::string& name,
                                               const SearchLimits& limits,
                                               std::string* report) {
  VIEWCAP_ASSIGN_OR_RETURN(const View* view, GetView(name));
  VIEWCAP_ASSIGN_OR_RETURN(SimplifyOutcome outcome,
                           Simplify(*engine_, catalog_.get(), *view, limits));
  if (report != nullptr) {
    *report = StrCat("simplified in ", outcome.rounds, " round(s)\n",
                     outcome.view.ToString());
  }
  std::string result_name = StrCat(name, "_simplified");
  if (views_.count(result_name) == 0) {
    RegisterView(outcome.view, result_name);
  }
  return outcome;
}

Result<std::vector<Analyzer::LatticeEntry>> Analyzer::CompareAllViews(
    const SearchLimits& limits, std::string* report) const {
  std::vector<LatticeEntry> entries;
  for (std::size_t i = 0; i < view_order_.size(); ++i) {
    for (std::size_t j = i + 1; j < view_order_.size(); ++j) {
      const View& left = views_.at(view_order_[i]);
      const View& right = views_.at(view_order_[j]);
      VIEWCAP_ASSIGN_OR_RETURN(DominanceResult lr,
                               Dominates(*engine_, left, right, limits));
      VIEWCAP_ASSIGN_OR_RETURN(DominanceResult rl,
                               Dominates(*engine_, right, left, limits));
      entries.push_back(LatticeEntry{view_order_[i], view_order_[j],
                                     lr.dominates, rl.dominates,
                                     lr.inconclusive || rl.inconclusive});
    }
  }
  if (report != nullptr) {
    std::string out;
    for (const LatticeEntry& e : entries) {
      const char* relation =
          e.left_dominates_right
              ? (e.right_dominates_left ? "EQUIVALENT to" : "dominates")
              : (e.right_dominates_left ? "is dominated by"
                                        : "is incomparable with");
      out += StrCat("  ", e.left, " ", relation, " ", e.right,
                    e.inconclusive ? "  (inconclusive)" : "", "\n");
    }
    *report = std::move(out);
  }
  return entries;
}

Result<MinimizeResult> Analyzer::MinimizeQuery(const std::string& expr_text,
                                               const SearchLimits& limits,
                                               std::string* report) const {
  VIEWCAP_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr(*catalog_, expr_text));
  for (RelId rel : expr->RelNames()) {
    if (!base_.Contains(rel)) {
      return Status::IllFormed(
          StrCat("query mentions non-base relation '",
                 catalog_->RelationName(rel), "'"));
    }
  }
  VIEWCAP_ASSIGN_OR_RETURN(
      MinimizeResult result,
      MinimizeExpression(*catalog_, base_.universe(), expr, limits));
  if (report != nullptr) {
    *report = StrCat(ToString(*result.expression, *catalog_), "\n  (",
                     result.leaves_before, " -> ", result.leaves_after,
                     " leaves", result.minimal ? ", minimal" : "", ")\n");
  }
  return result;
}

Result<const View*> Analyzer::ComposeViews(const std::string& inner,
                                           const std::string& outer,
                                           std::string* report) {
  VIEWCAP_ASSIGN_OR_RETURN(const View* inner_view, GetView(inner));
  VIEWCAP_ASSIGN_OR_RETURN(const View* outer_view, GetView(outer));
  VIEWCAP_ASSIGN_OR_RETURN(View composed,
                           Compose(*engine_, *inner_view, *outer_view));
  std::string result_name = composed.name();
  if (report != nullptr) *report = composed.ToString();
  if (views_.count(result_name) == 0) {
    RegisterView(std::move(composed), result_name);
  }
  return &views_.at(result_name);
}

Result<std::string> Analyzer::ExportView(const std::string& name) const {
  VIEWCAP_ASSIGN_OR_RETURN(const View* view, GetView(name));
  return ExportProgram(*view);
}

Result<Relation> Analyzer::EvaluateViewQuery(const std::string& view_name,
                                             const std::string& query_text,
                                             const std::string& data_text,
                                             std::string* report) const {
  VIEWCAP_ASSIGN_OR_RETURN(const View* view, GetView(view_name));
  VIEWCAP_ASSIGN_OR_RETURN(ExprPtr query, ParseExpr(*catalog_, query_text));
  VIEWCAP_ASSIGN_OR_RETURN(ExprPtr surrogate, view->Surrogate(query));
  VIEWCAP_ASSIGN_OR_RETURN(Instantiation alpha,
                           ParseInstance(*catalog_, data_text));
  Relation result = Evaluate(*surrogate, alpha);
  if (report != nullptr) {
    *report = StrCat("surrogate: ", ToString(*surrogate, *catalog_), "\n",
                     result.ToString(*catalog_));
  }
  return result;
}

Result<std::vector<CapacityOracle::CapacityEntry>>
Analyzer::EnumerateViewCapacity(const std::string& name,
                                std::size_t max_leaves,
                                const SearchLimits& limits,
                                std::size_t max_entries,
                                std::string* report) const {
  VIEWCAP_ASSIGN_OR_RETURN(const View* view, GetView(name));
  CapacityOracle oracle(engine_.get(), *view, limits);
  VIEWCAP_ASSIGN_OR_RETURN(
      std::vector<CapacityOracle::CapacityEntry> entries,
      oracle.EnumerateCapacity(max_leaves, max_entries));
  if (report != nullptr) {
    std::string out = StrCat("Cap(", name, ") members derivable with <= ",
                             max_leaves, " leaves: ", entries.size(), "\n");
    for (const auto& entry : entries) {
      out += StrCat("  ", ToString(entry.query.Trs(), *catalog_), "  via  ",
                    ToString(*entry.witness, *catalog_), "\n");
    }
    *report = std::move(out);
  }
  return entries;
}

}  // namespace viewcap
