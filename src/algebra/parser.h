// A small concrete syntax for schemas, expressions and views.
//
//   program   := item*
//   item      := schema | view
//   schema    := "schema" "{" rel_decl* "}"
//   rel_decl  := IDENT "(" IDENT ("," IDENT)* ")" ";"
//   view      := "view" IDENT "{" def* "}"
//   def       := IDENT ":=" expr ";"
//   expr      := term ("*" term)*                 -- '*' is natural join
//   term      := "pi" "{" IDENT ("," IDENT)* "}" "(" expr ")"
//              | "(" expr ")"
//              | IDENT
//
// Example:
//   schema { r(A, B, C); }
//   view V { v := pi{A, B}(r); }
//
// Parsing is two-layered: algebra/ast.h produces the span-carrying raw
// syntax tree, and this header's functions lower it against a Catalog into
// typed expressions. Strict callers (the analyzer, the CLI commands) use
// these; the linter (src/lint) walks the raw AST instead so it can keep
// going after the first defect.
#ifndef VIEWCAP_ALGEBRA_PARSER_H_
#define VIEWCAP_ALGEBRA_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "algebra/ast.h"
#include "algebra/expr.h"

namespace viewcap {

/// One `name := expr` pair of a parsed view. The view relation name is
/// interned in the catalog with type TRS(expr) during parsing.
struct ParsedDefinition {
  RelId view_rel = kInvalidRel;
  ExprPtr query;
  /// The definition's name as written, with the span of its occurrence on
  /// the left-hand side (for diagnostics).
  std::string name;
  SourceSpan name_span;
};

/// A parsed `view` block.
struct ParsedView {
  std::string name;
  SourceSpan name_span;
  std::vector<ParsedDefinition> definitions;
};

/// Everything a program declared.
struct ParsedProgram {
  /// Base relations declared in `schema` blocks, in declaration order.
  std::vector<RelId> base_relations;
  std::vector<ParsedView> views;
};

/// Parses a standalone expression over relations and attributes already in
/// `catalog`, which it only reads. Diagnostics carry 1-based line:column
/// positions.
Result<ExprPtr> ParseExpr(const Catalog& catalog, std::string_view text);

/// Parses a full program, interning declared relations and view names into
/// `catalog`.
Result<ParsedProgram> ParseProgram(Catalog& catalog, std::string_view text);

/// Lowers an already-parsed raw expression against `catalog`: resolves
/// relation and attribute names and applies the Section 1.2 typing rules.
/// A projection name the catalog lacks is the same typing error as one
/// outside the child's TRS. Errors carry the offending node's source
/// location.
Result<ExprPtr> LowerExpr(const Catalog& catalog, const AstExpr& expr);

/// Lowers a raw program item-by-item (schema attributes and relations and
/// view relation names are interned as encountered, so later items see
/// earlier ones).
Result<ParsedProgram> LowerProgram(Catalog& catalog,
                                   const AstProgram& program);

}  // namespace viewcap

#endif  // VIEWCAP_ALGEBRA_PARSER_H_
