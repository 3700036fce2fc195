#include "lint/linter.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "algebra/expand.h"
#include "algebra/parser.h"
#include "algebra/printer.h"
#include "base/strings.h"
#include "engine/engine.h"
#include "lint/fixits.h"
#include "tableau/build.h"
#include "views/capacity.h"
#include "views/redundancy.h"
#include "views/simplify.h"

namespace viewcap {

namespace {

// Stable rule codes (documented in lint/linter.h and lint/rules.h).
constexpr std::string_view kSyntaxError = "VCL000";
constexpr std::string_view kUndefinedRelation = "VCL001";
constexpr std::string_view kUnknownAttribute = "VCL002";
constexpr std::string_view kEmptyAttrList = "VCL003";
constexpr std::string_view kDuplicateAttribute = "VCL004";
constexpr std::string_view kIdentityProjection = "VCL005";
constexpr std::string_view kDuplicateDefinition = "VCL006";
constexpr std::string_view kShadowedRelation = "VCL007";
constexpr std::string_view kUnusedRelation = "VCL008";
constexpr std::string_view kConflictingDeclaration = "VCL009";
constexpr std::string_view kSemanticSkipped = "VCL010";
constexpr std::string_view kRedundantDefinition = "VCL101";
constexpr std::string_view kNotSimplified = "VCL102";
constexpr std::string_view kEquivalentDefinitions = "VCL103";
constexpr std::string_view kReconstructible = "VCL104";
constexpr std::string_view kSubsumedView = "VCL201";
constexpr std::string_view kCompositionLoss = "VCL202";
constexpr std::string_view kDefinitionCycle = "VCL203";
constexpr std::string_view kDeterminacyBoundary = "VCL204";

/// What the linter knows about a name: its scheme, where it was declared
/// and whether the typed layer can work with it.
struct RelInfo {
  AttrSet scheme;
  SourceSpan decl_span;
  bool is_base = false;
  bool used = false;
  /// True when a typed, base-level defining query exists for the name
  /// (always true for base relations). References to non-analyzable names
  /// exclude a definition from the semantic pass but are not themselves
  /// defects — their defects were already reported where they occurred.
  bool analyzable = false;
};

/// A definition that resolved cleanly, ready for the semantic rules.
struct DefInfo {
  std::size_t view_index = 0;
  std::string view_name;
  std::string name;
  SourceSpan name_span;
  SourceSpan stmt_span;  ///< The whole `name := expr;` statement.
  RelId rel = kInvalidRel;
  ExprPtr expanded;  ///< Base-level (Lemma 1.4.1 expansion applied).
  Tableau reduced;   ///< Reduced Algorithm 2.1.1 template of `expanded`.
  /// Relation names the raw query references (pre-expansion), for the
  /// composition rule (VCL202).
  std::vector<std::string> refs;
};

/// Every parsed definition, resolved or not, for the reference graph of
/// the cycle rule (VCL203): a definition in a cycle never resolves (its
/// forward references read as undefined), so the graph must come from the
/// raw AST.
struct RawDef {
  std::string name;
  SourceSpan name_span;
  std::vector<std::string> refs;
};

/// Per-view bookkeeping for the whole-program rules.
struct ViewRec {
  std::string name;
  SourceSpan name_span;
  SourceSpan block_span;          ///< `view` keyword through closing '}'.
  std::size_t total_defs = 0;     ///< AST definitions with a parsed query.
  std::size_t resolved_defs = 0;  ///< Of those, entries in defs_.
};

/// Inline suppressions: line -> codes ignored on that line. A comment
/// `vcl-ignore(VCL101, VCL102)` (after `#`, `//` or `--`) targets its own
/// line, or the next line when the comment stands alone.
std::map<int, std::set<std::string>> ParseIgnores(std::string_view text) {
  std::map<int, std::set<std::string>> ignores;
  int line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    ++line_number;
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;

    std::size_t marker = std::string_view::npos;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '#' ||
          ((line[i] == '/' || line[i] == '-') && i + 1 < line.size() &&
           line[i + 1] == line[i])) {
        marker = i;
        break;
      }
    }
    if (marker == std::string_view::npos) {
      if (eol == text.size()) break;
      continue;
    }
    const std::string_view comment = line.substr(marker);
    const std::size_t at = comment.find("vcl-ignore(");
    if (at == std::string_view::npos) {
      if (eol == text.size()) break;
      continue;
    }
    std::set<std::string> codes;
    std::size_t i = at + std::string_view("vcl-ignore(").size();
    std::string code;
    for (; i < comment.size() && comment[i] != ')'; ++i) {
      const char c = comment[i];
      if (c == ',') {
        if (!code.empty()) codes.insert(std::move(code));
        code.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        code += c;
      }
    }
    if (!code.empty()) codes.insert(std::move(code));
    if (codes.empty()) {
      if (eol == text.size()) break;
      continue;
    }
    const std::string_view before = line.substr(0, marker);
    const bool standalone =
        before.find_first_not_of(" \t") == std::string_view::npos;
    const int target = standalone ? line_number + 1 : line_number;
    ignores[target].insert(codes.begin(), codes.end());
    if (eol == text.size()) break;
  }
  return ignores;
}

class LintRun {
 public:
  LintRun(const LintOptions& options) : options_(options) {}

  LintResult Run(std::string_view text) {
    text_ = text;
    map_.emplace(text);
    std::vector<SyntaxError> syntax_errors;
    AstProgram program = ParseProgramAst(text, syntax_errors);
    for (const SyntaxError& e : syntax_errors) {
      sink_.Report(Severity::kError, kSyntaxError, e.span, e.message);
    }
    StructuralPass(program);
    ReportUnusedRelations();
    FindDefinitionCycles();
    if (options_.semantic && !defs_.empty() && !base_ids_.empty()) {
      if (defs_.size() <= options_.max_semantic_definitions) {
        SemanticPass();
      } else {
        sink_.Report(
            Severity::kNote, kSemanticSkipped, defs_.front().name_span,
            StrCat("semantic analysis (VCL1xx/VCL2xx) skipped: ",
                   defs_.size(),
                   " resolved definitions exceed max_semantic_definitions"
                   " = ",
                   options_.max_semantic_definitions),
            "raise the threshold (or lint the program in parts) to run "
            "the closure-based rules");
      }
    }
    sink_.Sort();
    LintResult result;
    result.diagnostics = sink_.Take();
    ApplyInlineSuppressions(&result);
    return result;
  }

 private:
  // ---------------------------------------------------------------- pass 1

  void StructuralPass(const AstProgram& program) {
    for (const AstItem& item : program.items) {
      if (item.kind == AstItem::Kind::kSchema) {
        for (const AstRelationDecl& decl : item.relations) {
          DeclareRelation(decl);
        }
      } else {
        const std::size_t view_index = views_.size();
        views_.push_back(ViewRec{item.view.name, item.view.name_span,
                                 item.view.span, 0, 0});
        for (const AstDefinition& def : item.view.definitions) {
          LintDefinition(item.view, view_index, def);
        }
      }
    }
  }

  void DeclareRelation(const AstRelationDecl& decl) {
    std::optional<AttrSet> scheme =
        CheckAttrList(decl.attributes, decl.name_span,
                      StrCat("relation '", decl.name, "'"));
    if (!scheme.has_value()) return;
    auto it = env_.find(decl.name);
    if (it != env_.end()) {
      if (it->second.scheme == *scheme) {
        sink_.Report(Severity::kWarning, kConflictingDeclaration,
                     decl.name_span,
                     StrCat("redeclaration of relation '", decl.name, "'"),
                     StrCat("previously declared at ",
                            ToString(it->second.decl_span)));
      } else {
        sink_.Report(
            Severity::kError, kConflictingDeclaration, decl.name_span,
            StrCat("relation '", decl.name,
                   "' redeclared with a different scheme"),
            StrCat("previously declared at ",
                   ToString(it->second.decl_span), " as ",
                   viewcap::ToString(it->second.scheme, catalog_)));
      }
      return;
    }
    Result<RelId> rel = catalog_.AddRelation(decl.name, *scheme);
    if (!rel.ok()) return;  // Unreachable: emptiness/conflicts handled above.
    env_.emplace(decl.name, RelInfo{*scheme, decl.name_span,
                                    /*is_base=*/true, /*used=*/false,
                                    /*analyzable=*/true});
    base_ids_.push_back(*rel);
    base_names_.push_back(decl.name);
  }

  /// Shared checks for projection lists and declaration schemes: emptiness
  /// (VCL003) and duplicates (VCL004, with a drop-the-repeat fix-it).
  /// Returns the interned set, or nullopt when empty.
  std::optional<AttrSet> CheckAttrList(const std::vector<AstAttr>& attrs,
                                       const SourceSpan& anchor,
                                       const std::string& what) {
    if (attrs.empty()) {
      sink_.Report(Severity::kError, kEmptyAttrList, anchor,
                   StrCat(what, " has an empty attribute list"));
      return std::nullopt;
    }
    std::set<std::string_view> seen;
    std::vector<AttrId> ids;
    ids.reserve(attrs.size());
    for (const AstAttr& attr : attrs) {
      if (!seen.insert(attr.name).second) {
        Diagnostic d;
        d.severity = Severity::kWarning;
        d.code = kDuplicateAttribute;
        d.span = attr.span;
        d.message =
            StrCat("duplicate attribute '", attr.name, "' in ", what);
        if (std::optional<TextEdit> edit = DropListItemEdit(attr.span)) {
          d.fixits.push_back(std::move(*edit));
        }
        sink_.Add(std::move(d));
      }
      ids.push_back(catalog_.AddAttribute(attr.name));
    }
    return AttrSet(std::move(ids));
  }

  /// The deletion edit for a comma-separated list item: the item plus its
  /// preceding comma (a duplicate is never the first item). Nullopt when
  /// the text around the span is not shaped as expected.
  std::optional<TextEdit> DropListItemEdit(const SourceSpan& item) {
    std::size_t begin = map_->Offset(item.begin);
    const std::size_t end = map_->Offset(item.end);
    while (begin > 0 &&
           std::isspace(static_cast<unsigned char>(text_[begin - 1]))) {
      --begin;
    }
    if (begin == 0 || text_[begin - 1] != ',') return std::nullopt;
    return TextEdit{SourceSpan{map_->Location(begin - 1),
                               map_->Location(end)},
                    ""};
  }

  /// Result of the structural walk over one raw expression.
  struct ExprScan {
    std::optional<AttrSet> trs;  ///< Unknown when resolution failed below.
    bool clean = true;           ///< No structural defect inside.
    bool analyzable = true;      ///< Every referenced name is analyzable.
  };

  ExprScan ScanExpr(const AstExpr& expr) {
    ExprScan scan;
    switch (expr.kind) {
      case AstExpr::Kind::kRel: {
        current_refs_.push_back(expr.rel);
        auto it = env_.find(expr.rel);
        if (it == env_.end()) {
          sink_.Report(Severity::kError, kUndefinedRelation, expr.span,
                       StrCat("undefined relation '", expr.rel, "'"));
          scan.clean = false;
          scan.analyzable = false;
          return scan;
        }
        it->second.used = true;
        scan.analyzable = it->second.analyzable;
        scan.trs = it->second.scheme;
        return scan;
      }
      case AstExpr::Kind::kProject: {
        const AstExpr& operand = *expr.children.front();
        ExprScan child = ScanExpr(operand);
        scan.clean = child.clean;
        scan.analyzable = child.analyzable;
        std::optional<AttrSet> attrs =
            CheckAttrList(expr.projection, expr.span, "projection");
        if (!attrs.has_value()) {
          scan.clean = false;
          return scan;  // TRS unknown.
        }
        if (child.trs.has_value()) {
          bool typed = true;
          for (const AstAttr& attr : expr.projection) {
            AttrId id = catalog_.AddAttribute(attr.name);
            if (!child.trs->Contains(id)) {
              sink_.Report(
                  Severity::kError, kUnknownAttribute, attr.span,
                  StrCat("attribute '", attr.name,
                         "' is not in the operand's scheme ",
                         viewcap::ToString(*child.trs, catalog_)));
              typed = false;
            }
          }
          if (typed && *attrs == *child.trs) {
            Diagnostic d;
            d.severity = Severity::kNote;
            d.code = kIdentityProjection;
            d.span = expr.span;
            d.message = StrCat("projection onto the full scheme ",
                               viewcap::ToString(*attrs, catalog_),
                               " is the identity");
            // Fix-it: unwrap — replace the projection by its operand.
            d.fixits.push_back(
                TextEdit{expr.span, map_->Slice(operand.span)});
            sink_.Add(std::move(d));
          }
          if (!typed) scan.clean = false;
        }
        scan.trs = std::move(attrs);
        return scan;
      }
      case AstExpr::Kind::kJoin: {
        AttrSet trs;
        bool trs_known = true;
        for (const AstExprPtr& child : expr.children) {
          ExprScan c = ScanExpr(*child);
          scan.clean = scan.clean && c.clean;
          scan.analyzable = scan.analyzable && c.analyzable;
          if (c.trs.has_value()) {
            trs = trs.Union(*c.trs);
          } else {
            trs_known = false;
          }
        }
        if (trs_known) scan.trs = std::move(trs);
        return scan;
      }
    }
    return scan;
  }

  void LintDefinition(const AstView& view, std::size_t view_index,
                      const AstDefinition& def) {
    if (def.query == nullptr) return;  // Dropped during syntax recovery.
    ++views_[view_index].total_defs;
    current_refs_.clear();
    ExprScan scan = ScanExpr(*def.query);
    raw_defs_.push_back(RawDef{def.name, def.name_span, current_refs_});
    auto it = env_.find(def.name);
    if (it != env_.end()) {
      if (it->second.is_base) {
        sink_.Report(Severity::kError, kShadowedRelation, def.name_span,
                     StrCat("definition '", def.name,
                            "' shadows a base relation"),
                     StrCat("relation declared at ",
                            ToString(it->second.decl_span)));
      } else {
        sink_.Report(Severity::kError, kDuplicateDefinition, def.name_span,
                     StrCat("view relation '", def.name,
                            "' is defined twice"),
                     StrCat("first defined at ",
                            ToString(it->second.decl_span)));
      }
      return;
    }
    if (!scan.trs.has_value()) return;  // Defects already reported.
    RelInfo info;
    info.scheme = *scan.trs;
    info.decl_span = def.name_span;
    if (!scan.clean || !scan.analyzable) {
      env_.emplace(def.name, std::move(info));
      return;
    }
    // The definition resolved cleanly: lower it through the typed layer and
    // flatten view-of-view references (Lemma 1.4.1) for the semantic pass.
    Result<ExprPtr> lowered = LowerExpr(catalog_, *def.query);
    if (!lowered.ok()) {
      env_.emplace(def.name, std::move(info));
      return;
    }
    Result<ExprPtr> expanded = Expand(catalog_, *lowered, known_);
    Result<RelId> rel = catalog_.AddRelation(def.name, (*lowered)->trs());
    if (!expanded.ok() || !rel.ok()) {
      env_.emplace(def.name, std::move(info));
      return;
    }
    info.analyzable = true;
    env_.emplace(def.name, std::move(info));
    known_.emplace(*rel, *expanded);
    ++views_[view_index].resolved_defs;
    defs_.push_back(DefInfo{view_index, view.name, def.name, def.name_span,
                            def.span, *rel, std::move(*expanded), Tableau{},
                            current_refs_});
  }

  void ReportUnusedRelations() {
    if (defs_.empty() && known_.empty()) return;  // No definitions at all.
    bool any_definition = false;
    for (const auto& [name, info] : env_) {
      if (!info.is_base) any_definition = true;
    }
    if (!any_definition) return;
    for (const std::string& name : base_names_) {
      const RelInfo& info = env_.at(name);
      if (!info.used) {
        sink_.Report(Severity::kWarning, kUnusedRelation, info.decl_span,
                     StrCat("relation '", name,
                            "' is never read by any view definition"));
      }
    }
  }

  // ------------------------------------------------- the reference graph

  /// VCL203: strongly connected components of the definition reference
  /// graph. Built from the raw AST — cyclic definitions never resolve (the
  /// forward references read as undefined relations), so this is the pass
  /// that tells "cycle" apart from "typo". Always runs; needs no closure.
  void FindDefinitionCycles() {
    // First definition per name; names that are base relations resolve to
    // the base, never to a definition (the shadowing definition itself is
    // a VCL007 error).
    std::map<std::string_view, std::size_t> def_by_name;
    for (std::size_t i = 0; i < raw_defs_.size(); ++i) {
      auto it = env_.find(raw_defs_[i].name);
      if (it != env_.end() && it->second.is_base) continue;
      def_by_name.emplace(raw_defs_[i].name, i);
    }
    const std::size_t n = raw_defs_.size();
    std::vector<std::vector<std::size_t>> adj(n);
    std::vector<bool> self_loop(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::string& ref : raw_defs_[i].refs) {
        auto it = def_by_name.find(ref);
        if (it == def_by_name.end()) continue;
        adj[i].push_back(it->second);
        if (it->second == i) self_loop[i] = true;
      }
    }

    // Tarjan's SCC, reporting each cyclic component once.
    std::vector<std::size_t> index(n, 0);
    std::vector<std::size_t> low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::size_t> stack;
    std::size_t next_index = 1;
    std::function<void(std::size_t)> strongconnect =
        [&](std::size_t v) {
          index[v] = low[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          for (std::size_t w : adj[v]) {
            if (index[w] == 0) {
              strongconnect(w);
              low[v] = std::min(low[v], low[w]);
            } else if (on_stack[w]) {
              low[v] = std::min(low[v], index[w]);
            }
          }
          if (low[v] != index[v]) return;
          std::vector<std::size_t> component;
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component.push_back(w);
            if (w == v) break;
          }
          if (component.size() < 2 && !self_loop[v]) return;
          std::sort(component.begin(), component.end());
          std::string chain;
          for (std::size_t w : component) {
            chain += StrCat(raw_defs_[w].name, " -> ");
          }
          chain += raw_defs_[component.front()].name;
          sink_.Report(
              Severity::kError, kDefinitionCycle,
              raw_defs_[component.front()].name_span,
              StrCat("view definitions form a reference cycle: ", chain),
              "a cyclic program has no expansion to base relations "
              "(Lemma 1.4.1); break the cycle to make these definitions "
              "analyzable");
        };
    for (std::size_t v = 0; v < n; ++v) {
      if (index[v] == 0) strongconnect(v);
    }
  }

  // ---------------------------------------------------------------- pass 2

  void SemanticPass() {
    universe_ = catalog_.Universe(base_ids_);
    SymbolPool pool;
    for (DefInfo& def : defs_) {
      Result<Tableau> t = BuildTableau(catalog_, universe_, *def.expanded,
                                       pool);
      if (!t.ok()) return;  // Cannot happen for lowered queries; bail out.
      def.reduced = engine_.Representative(engine_.Intern(*t));
    }
    std::vector<bool> flagged(defs_.size(), false);
    FindEquivalentDefinitions(flagged);
    FindRedundantAndNonSimple(flagged);
    // Whole-program (VCL2xx) rules, on the same engine. Subsumption runs
    // before reconstructibility so a dead view is one warning, not a
    // warning plus a note per definition.
    std::vector<bool> subsumed(views_.size(), false);
    std::vector<bool> inconclusive(views_.size(), false);
    FindSubsumedViews(subsumed, inconclusive);
    FindCompositionLoss(inconclusive);
    ReportDeterminacyBoundary(inconclusive);
    FindReconstructible(flagged, subsumed);
  }

  /// Resolved definition indices per view, in program order.
  std::map<std::size_t, std::vector<std::size_t>> GroupByView() const {
    std::map<std::size_t, std::vector<std::size_t>> by_view;
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      by_view[defs_[i].view_index].push_back(i);
    }
    return by_view;
  }

  /// VCL103: pairwise mapping equivalence through the engine's interning
  /// store (reduce and the exact canonical key run inside Intern, once per
  /// definition rather than once per pair).
  void FindEquivalentDefinitions(std::vector<bool>& flagged) {
    std::vector<TableauId> ids;
    ids.reserve(defs_.size());
    for (const DefInfo& def : defs_) ids.push_back(engine_.Intern(def.reduced));
    for (std::size_t j = 0; j < defs_.size(); ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        if (ids[i] != ids[j]) continue;
        sink_.Report(
            Severity::kWarning, kEquivalentDefinitions, defs_[j].name_span,
            StrCat("defining query of '", defs_[j].name,
                   "' is equivalent to that of '", defs_[i].name, "'"),
            StrCat("'", defs_[i].name, "' is defined at ",
                   ToString(defs_[i].name_span),
                   "; equal up to canonical form of their tableaux"));
        // Exclude both sides from the closure rules: each is trivially
        // redundant via its twin, which would only restate this finding.
        flagged[i] = true;
        flagged[j] = true;
        break;
      }
    }
  }

  /// VCL101 and VCL102: per-view redundancy (Theorem 3.1.4) and simplicity
  /// (Section 4 normal form). Redundancy eliminates greedily — a flagged
  /// definition leaves the working set before the next member is tested —
  /// so applying every VCL101 fix-it at once is exactly the Theorem 3.1.4
  /// fixpoint and can never over-delete.
  void FindRedundantAndNonSimple(std::vector<bool>& flagged) {
    for (const auto& [view_index, members] : GroupByView()) {
      std::vector<std::size_t> active = members;
      for (const std::size_t idx : members) {
        const DefInfo& def = defs_[idx];
        if (flagged[idx]) continue;  // VCL103 twins stay in the set.
        const auto ait = std::find(active.begin(), active.end(), idx);
        if (ait == active.end()) continue;
        const std::size_t apos =
            static_cast<std::size_t>(ait - active.begin());
        std::vector<QuerySet::Member> qs_members;
        qs_members.reserve(active.size());
        for (std::size_t j : active) {
          qs_members.push_back({defs_[j].rel, defs_[j].reduced});
        }
        Result<QuerySet> set =
            QuerySet::Create(&catalog_, universe_, std::move(qs_members));
        if (!set.ok()) continue;
        if (active.size() > 1) {
          Result<RedundancyResult> red =
              IsRedundant(engine_, *set, apos, options_.limits);
          if (red.ok() && red->redundant) {
            Diagnostic d;
            d.severity = Severity::kWarning;
            d.code = kRedundantDefinition;
            d.span = def.name_span;
            d.message =
                StrCat("definition '", def.name,
                       "' is redundant: it is answerable from the view's "
                       "other definitions (Theorem 3.1.4)");
            if (red->membership.witness != nullptr) {
              d.note = StrCat("reconstructible as ",
                              viewcap::ToString(red->membership.witness,
                                                catalog_));
            }
            d.fixits.push_back(TextEdit{def.stmt_span, ""});
            sink_.Add(std::move(d));
            flagged[idx] = true;
            active.erase(ait);
            continue;
          }
        }
        Result<SimplicityResult> simple =
            IsSimple(engine_, &catalog_, *set, apos, options_.limits);
        if (simple.ok() && !simple->simple &&
            !simple->membership.budget_exhausted) {
          sink_.Report(
              Severity::kWarning, kNotSimplified, def.name_span,
              StrCat("definition '", def.name,
                     "' is not simple: view '", def.view_name,
                     "' is not in the Section 4 simplified normal form"),
              "it is answerable from its own proper projections and the "
              "other definitions; run `simplify` to normalize");
          flagged[idx] = true;
        }
      }
    }
  }

  /// VCL201: a view whose every defining query is answerable from the rest
  /// of the program is dead weight — Cap(V) is dominated by the program
  /// without it (Lemma 1.5.4 applied program-wide). Views are tested in
  /// program order and a subsumed view leaves the "rest" for later tests,
  /// so deleting every flagged view at once preserves the program's
  /// capacity (the greedy order never lets two views subsume each other).
  void FindSubsumedViews(std::vector<bool>& subsumed,
                         std::vector<bool>& inconclusive) {
    const auto by_view = GroupByView();
    if (by_view.size() < 2) return;
    for (const auto& [v, members] : by_view) {
      const ViewRec& view = views_[v];
      // Only a fully resolved view may be declared dead: an unresolved
      // definition has unknown capacity.
      if (view.total_defs == 0 || view.resolved_defs != view.total_defs) {
        continue;
      }
      std::vector<QuerySet::Member> others;
      for (const auto& [w, rest] : by_view) {
        if (w == v || subsumed[w]) continue;
        for (std::size_t j : rest) {
          others.push_back({defs_[j].rel, defs_[j].reduced});
        }
      }
      if (others.empty()) continue;
      Result<QuerySet> set =
          QuerySet::Create(&catalog_, universe_, std::move(others));
      if (!set.ok()) continue;
      CapacityOracle oracle(&engine_, *set, options_.limits);
      bool all_answerable = true;
      std::vector<std::string> witnesses;
      for (std::size_t i : members) {
        Result<MembershipResult> member = oracle.Contains(defs_[i].reduced);
        if (!member.ok()) {
          all_answerable = false;
          break;
        }
        if (!member->member) {
          all_answerable = false;
          if (member->budget_exhausted) inconclusive[v] = true;
          break;
        }
        if (member->witness != nullptr) {
          witnesses.push_back(
              StrCat(defs_[i].name, " = ",
                     viewcap::ToString(member->witness, catalog_)));
        }
      }
      if (!all_answerable) continue;
      Diagnostic d;
      d.severity = Severity::kWarning;
      d.code = kSubsumedView;
      d.span = view.name_span;
      d.message = StrCat(
          "view '", view.name,
          "' is subsumed: every definition is answerable from the rest "
          "of the program (its capacity is dominated)");
      d.note = Join(witnesses, "; ");
      d.fixits.push_back(TextEdit{view.block_span, ""});
      sink_.Add(std::move(d));
      subsumed[v] = true;
    }
  }

  /// VCL202: a view composed purely from one other view can only lose
  /// capacity (Section 1.3 / compose.h: Cap(outer) is contained in
  /// Cap(inner)); this reports when the containment is proper, i.e. some
  /// definition of the inner view is no longer answerable through the
  /// outer one. A note, not a warning — losing capacity is often the
  /// point (e.g. a sanitized view).
  void FindCompositionLoss(std::vector<bool>& inconclusive) {
    std::map<std::string_view, std::size_t> def_by_name;
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      def_by_name.emplace(defs_[i].name, i);
    }
    const auto by_view = GroupByView();
    for (const auto& [v, members] : by_view) {
      const ViewRec& outer = views_[v];
      if (outer.total_defs == 0 || outer.resolved_defs != outer.total_defs) {
        continue;
      }
      // Purity: every leaf of every definition must be a definition of one
      // single other view — only then is Cap(outer) comparable to
      // Cap(inner) by construction.
      std::set<std::size_t> inner_views;
      bool pure = true;
      for (std::size_t i : members) {
        for (const std::string& ref : defs_[i].refs) {
          auto it = def_by_name.find(ref);
          if (it == def_by_name.end() ||
              defs_[it->second].view_index == v) {
            pure = false;
            break;
          }
          inner_views.insert(defs_[it->second].view_index);
        }
        if (!pure) break;
      }
      if (!pure || inner_views.size() != 1) continue;
      const std::size_t w = *inner_views.begin();
      const ViewRec& inner = views_[w];
      if (inner.resolved_defs != inner.total_defs) continue;
      std::vector<QuerySet::Member> outer_members;
      outer_members.reserve(members.size());
      for (std::size_t i : members) {
        outer_members.push_back({defs_[i].rel, defs_[i].reduced});
      }
      Result<QuerySet> set =
          QuerySet::Create(&catalog_, universe_, std::move(outer_members));
      if (!set.ok()) continue;
      CapacityOracle oracle(&engine_, *set, options_.limits);
      std::vector<std::string> missing;
      for (std::size_t i : by_view.at(w)) {
        Result<MembershipResult> member = oracle.Contains(defs_[i].reduced);
        if (!member.ok()) continue;
        if (member->member) continue;
        if (member->budget_exhausted) {
          inconclusive[v] = true;
        } else {
          missing.push_back(StrCat("'", defs_[i].name, "'"));
        }
      }
      if (missing.empty()) continue;
      sink_.Report(
          Severity::kNote, kCompositionLoss, outer.name_span,
          StrCat("view '", outer.name,
                 "' strictly loses capacity composing '", inner.name,
                 "': ", Join(missing, ", "),
                 missing.size() == 1 ? " is" : " are",
                 " no longer answerable"),
          "Cap(outer) is always contained in Cap(inner) under composition "
          "(Section 1.3); a proper loss may be intended, e.g. for a "
          "sanitized view");
    }
  }

  /// VCL204: an inconclusive whole-program check is not silence — it is a
  /// note placing the program relative to the determinacy decidability
  /// boundary mapped by the modern literature. Only programs with joins
  /// reach it: in a join-free program every definition is one row
  /// pi_Y(r), and a one-row query is settled by the canonical witness or
  /// the canonical-rewriting refutation before any budget applies (the
  /// project-select fragment, where determinacy is decidable,
  /// arXiv:2411.08874).
  void ReportDeterminacyBoundary(const std::vector<bool>& inconclusive) {
    for (std::size_t v = 0; v < views_.size(); ++v) {
      if (!inconclusive[v]) continue;
      sink_.Report(
          Severity::kNote, kDeterminacyBoundary, views_[v].name_span,
          StrCat("whole-program capacity analysis of view '",
                 views_[v].name,
                 "' is inconclusive: a closure search exhausted its "
                 "candidate budget"),
          "the program uses joins, and general conjunctive-query "
          "determinacy is undecidable (arXiv:1501.01817): budget-bounded "
          "search is the strongest complete check available");
    }
  }

  /// VCL104: derivability from the other views' definitions. Skips views
  /// already reported subsumed (VCL201 states the stronger fact).
  void FindReconstructible(const std::vector<bool>& flagged,
                           const std::vector<bool>& subsumed) {
    std::set<std::size_t> views;
    for (const DefInfo& def : defs_) views.insert(def.view_index);
    if (views.size() < 2) return;
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      if (flagged[i] || subsumed[defs_[i].view_index]) continue;
      std::vector<QuerySet::Member> others;
      for (std::size_t j = 0; j < defs_.size(); ++j) {
        if (defs_[j].view_index != defs_[i].view_index) {
          others.push_back({defs_[j].rel, defs_[j].reduced});
        }
      }
      if (others.empty()) continue;
      Result<QuerySet> set =
          QuerySet::Create(&catalog_, universe_, std::move(others));
      if (!set.ok()) continue;
      CapacityOracle oracle(&engine_, *set, options_.limits);
      Result<MembershipResult> member = oracle.Contains(defs_[i].reduced);
      if (member.ok() && member->member) {
        std::string witness =
            member->witness != nullptr
                ? StrCat("derivable as ",
                         viewcap::ToString(member->witness, catalog_))
                : std::string();
        sink_.Report(
            Severity::kNote, kReconstructible, defs_[i].name_span,
            StrCat("definition '", defs_[i].name,
                   "' is derivable from the definitions of the other views"),
            std::move(witness));
      }
    }
  }

  // ------------------------------------------------------------- epilogue

  void ApplyInlineSuppressions(LintResult* result) {
    const std::map<int, std::set<std::string>> ignores =
        ParseIgnores(text_);
    if (ignores.empty()) return;
    std::vector<Diagnostic> kept;
    kept.reserve(result->diagnostics.size());
    for (Diagnostic& d : result->diagnostics) {
      auto it = ignores.find(d.span.begin.line);
      if (it != ignores.end() && it->second.count(d.code) > 0) {
        ++result->suppressed;
        continue;
      }
      kept.push_back(std::move(d));
    }
    result->diagnostics = std::move(kept);
  }

  static std::string Join(const std::vector<std::string>& parts,
                          std::string_view sep) {
    std::string out;
    for (const std::string& part : parts) {
      if (!out.empty()) out += sep;
      out += part;
    }
    return out;
  }

  const LintOptions& options_;
  std::string_view text_;
  std::optional<LineMap> map_;
  DiagnosticSink sink_;
  Catalog catalog_;
  Engine engine_{&catalog_};  // Shared by every semantic rule of the run.
  std::map<std::string, RelInfo> env_;
  std::vector<RelId> base_ids_;
  std::vector<std::string> base_names_;
  Definitions known_;
  std::vector<DefInfo> defs_;
  std::vector<RawDef> raw_defs_;
  std::vector<ViewRec> views_;
  std::vector<std::string> current_refs_;
  AttrSet universe_;
};

}  // namespace

std::size_t LintResult::Count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::size_t LintResult::Fixable() const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.fixable()) ++n;
  }
  return n;
}

LintResult Linter::Run(std::string_view program_text) const {
  LintRun run(options_);
  return run.Run(program_text);
}

}  // namespace viewcap
