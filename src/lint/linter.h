// viewcap-lint: static analysis over .vcp view programs.
//
// The linter parses a program leniently (algebra/ast.h), then runs three
// families of rules:
//
// Structural rules — pure static analysis over the raw AST, no closure
// computation. One finding per occurrence:
//   VCL000 syntax-error            (error)   unparseable surface syntax
//   VCL001 undefined-relation      (error)   name never declared
//   VCL002 unknown-attribute       (error)   projection attribute outside
//                                            the operand's scheme TRS(E)
//   VCL003 empty-attr-list         (error)   empty projection list or
//                                            relation declared with an
//                                            empty scheme
//   VCL004 duplicate-attribute     (warning) repeated attribute in a
//                                            projection list / declaration
//                                            [fix-it: drop the repeat]
//   VCL005 identity-projection     (note)    pi onto the full scheme is
//                                            the identity map
//                                            [fix-it: unwrap the operand]
//   VCL006 duplicate-definition    (error)   view relation name defined
//                                            twice (any view)
//   VCL007 shadowed-relation       (error)   definition shadows a base
//                                            relation
//   VCL008 unused-relation         (warning) schema relation never read by
//                                            any definition
//   VCL009 conflicting-declaration (error/warning) relation redeclared
//                                            with a different / identical
//                                            scheme
//   VCL010 semantic-skipped        (note)    the VCL1xx/VCL2xx passes were
//                                            skipped: the program exceeds
//                                            max_semantic_definitions
//
// Semantic rules — bounded, paper-backed closure analyses; they run only
// over definitions whose queries resolved cleanly, and stay silent when a
// search budget is exhausted (no finding is better than a wrong one):
//   VCL101 redundant-definition    (warning) the defining query is in the
//                                            closure of the view's other
//                                            definitions (Theorem 3.1.4)
//                                            [fix-it: drop the definition]
//   VCL102 not-simplified          (warning) the definition is not simple,
//                                            so the view is not in the
//                                            Section 4 normal form
//   VCL103 equivalent-definitions  (warning) two defining queries are
//                                            equal up to canonical form
//                                            (Section 2 canonical tableaux)
//   VCL104 reconstructible-definition (note) the query is derivable from
//                                            the definitions of the other
//                                            views in the program
//
// Whole-program rules — the VCL2xx family analyzes the program as one
// unit on the run's shared memoizing Engine (its closure searches run
// serially at every SearchLimits::threads). VCL203 is graph-only and
// always runs; the rest are gated like the VCL1xx rules:
//   VCL201 subsumed-view           (warning) every defining query of the
//                                            view is answerable from the
//                                            remaining program: Cap(V) is
//                                            dominated, the view is dead
//                                            [fix-it: delete the view]
//   VCL202 composition-capacity-loss (note)  a view composed purely from
//                                            another view strictly loses
//                                            capacity (Section 1.3: the
//                                            containment Cap(outer) subset
//                                            Cap(inner) is proper)
//   VCL203 definition-cycle        (error)   definitions reference each
//                                            other cyclically: no
//                                            stratified Lemma 1.4.1
//                                            expansion exists
//   VCL204 determinacy-boundary    (note)    a whole-program check ran out
//                                            of budget; the note cites the
//                                            undecidability of general CQ
//                                            determinacy (arXiv:1501.01817).
//                                            Join-free programs never reach
//                                            it: the canonical witness and
//                                            the refutation settle every
//                                            one-row query before a budget
//                                            applies
//
// Findings can be suppressed inline: a comment `-- vcl-ignore(VCL101)`
// (also `#` / `//`) suppresses the listed codes on its own line, or on the
// next line when the comment stands alone. Suppressed findings are counted
// in LintResult::suppressed. Fix-its ride on Diagnostic::fixits and are
// applied by lint/fixits.h (CLI: `lint --fix`).
#ifndef VIEWCAP_LINT_LINTER_H_
#define VIEWCAP_LINT_LINTER_H_

#include <cstddef>
#include <string_view>

#include "algebra/enumerator.h"
#include "lint/diagnostics.h"

namespace viewcap {

struct LintOptions {
  /// Run the VCL1xx closure-based rules. Structural rules always run.
  bool semantic = true;
  /// Budgets for the closure searches behind the semantic rules.
  SearchLimits limits;
  /// Semantic rules are skipped entirely (silently) when the program has
  /// more resolved definitions than this, keeping lint time predictable on
  /// machine-generated programs.
  std::size_t max_semantic_definitions = 24;
};

struct LintResult {
  /// All findings, sorted by source position.
  std::vector<Diagnostic> diagnostics;
  /// Findings dropped by inline `vcl-ignore(...)` comments.
  std::size_t suppressed = 0;

  std::size_t Count(Severity severity) const;
  bool HasErrors() const { return Count(Severity::kError) > 0; }
  bool HasWarnings() const { return Count(Severity::kWarning) > 0; }
  /// Findings carrying machine-applicable fix-its.
  std::size_t Fixable() const;
};

/// The rule-driven analysis engine. Stateless between runs; each Run owns a
/// private catalog, so linting never mutates caller state.
class Linter {
 public:
  explicit Linter(LintOptions options = {}) : options_(options) {}

  /// Lints `program_text` (the full .vcp source).
  LintResult Run(std::string_view program_text) const;

  const LintOptions& options() const { return options_; }

 private:
  LintOptions options_;
};

}  // namespace viewcap

#endif  // VIEWCAP_LINT_LINTER_H_
