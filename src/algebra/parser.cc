#include "algebra/parser.h"

#include <utility>

#include "base/strings.h"

namespace viewcap {

namespace {

/// Renders the first recorded syntax error as the strict layer's Status.
Status FirstSyntaxError(const std::vector<SyntaxError>& errors) {
  const SyntaxError& first = errors.front();
  return Status::ParseError(
      StrCat(first.message, " at ", ToString(first.span)));
}

/// Re-tags a status with a source location appended to its message,
/// preserving the code (typing failures stay kIllFormed).
Status Locate(const Status& status, const SourceSpan& span) {
  return Status(status.code(),
                StrCat(status.message(), " at ", ToString(span)));
}

}  // namespace

Result<ExprPtr> LowerExpr(const Catalog& catalog, const AstExpr& expr) {
  switch (expr.kind) {
    case AstExpr::Kind::kRel: {
      Result<RelId> rel = catalog.FindRelation(expr.rel);
      if (!rel.ok()) {
        return Status::ParseError(StrCat("unknown relation '", expr.rel,
                                         "' at ", ToString(expr.span)));
      }
      return Expr::Rel(catalog, *rel);
    }
    case AstExpr::Kind::kProject: {
      if (expr.projection.empty()) {
        return Status::ParseError(
            StrCat("empty projection list at ", ToString(expr.span)));
      }
      VIEWCAP_ASSIGN_OR_RETURN(ExprPtr child,
                               LowerExpr(catalog, *expr.children.front()));
      // Every attribute of TRS(child) was interned with its relation's
      // scheme, so a name the catalog lacks is already outside TRS(child):
      // the same typing error as a known name outside it (Section 1.2).
      std::vector<AttrId> attrs;
      attrs.reserve(expr.projection.size());
      for (const AstAttr& attr : expr.projection) {
        Result<AttrId> id = catalog.FindAttribute(attr.name);
        if (!id.ok()) {
          return Locate(Status::IllFormed("projection list is not a subset "
                                          "of the child's TRS"),
                        expr.span);
        }
        attrs.push_back(*id);
      }
      Result<ExprPtr> project =
          Expr::Project(AttrSet(std::move(attrs)), std::move(child));
      if (!project.ok()) return Locate(project.status(), expr.span);
      return project;
    }
    case AstExpr::Kind::kJoin: {
      std::vector<ExprPtr> children;
      children.reserve(expr.children.size());
      for (const AstExprPtr& child : expr.children) {
        VIEWCAP_ASSIGN_OR_RETURN(ExprPtr lowered, LowerExpr(catalog, *child));
        children.push_back(std::move(lowered));
      }
      Result<ExprPtr> join = Expr::Join(std::move(children));
      if (!join.ok()) return Locate(join.status(), expr.span);
      return join;
    }
  }
  return Status::Internal("unhandled AST expression kind");
}

Result<ParsedProgram> LowerProgram(Catalog& catalog,
                                   const AstProgram& program) {
  ParsedProgram parsed;
  for (const AstItem& item : program.items) {
    if (item.kind == AstItem::Kind::kSchema) {
      for (const AstRelationDecl& decl : item.relations) {
        std::vector<AttrId> attrs;
        attrs.reserve(decl.attributes.size());
        for (const AstAttr& attr : decl.attributes) {
          attrs.push_back(catalog.AddAttribute(attr.name));
        }
        Result<RelId> rel =
            catalog.AddRelation(decl.name, AttrSet(std::move(attrs)));
        if (!rel.ok()) return Locate(rel.status(), decl.name_span);
        parsed.base_relations.push_back(*rel);
      }
      continue;
    }
    ParsedView view;
    view.name = item.view.name;
    view.name_span = item.view.name_span;
    for (const AstDefinition& def : item.view.definitions) {
      VIEWCAP_ASSIGN_OR_RETURN(ExprPtr query, LowerExpr(catalog, *def.query));
      // A view relation name has the type TRS(E_i) of its defining query.
      Result<RelId> rel = catalog.AddRelation(def.name, query->trs());
      if (!rel.ok()) return Locate(rel.status(), def.name_span);
      view.definitions.push_back(
          ParsedDefinition{*rel, std::move(query), def.name, def.name_span});
    }
    parsed.views.push_back(std::move(view));
  }
  return parsed;
}

Result<ExprPtr> ParseExpr(const Catalog& catalog, std::string_view text) {
  std::vector<SyntaxError> errors;
  AstExprPtr ast = ParseExprAst(text, errors);
  if (!errors.empty()) return FirstSyntaxError(errors);
  if (ast == nullptr) {
    return Status::ParseError("expected expression at 1:1");
  }
  return LowerExpr(catalog, *ast);
}

Result<ParsedProgram> ParseProgram(Catalog& catalog, std::string_view text) {
  std::vector<SyntaxError> errors;
  AstProgram ast = ParseProgramAst(text, errors);
  if (!errors.empty()) return FirstSyntaxError(errors);
  return LowerProgram(catalog, ast);
}

}  // namespace viewcap
