// Unit tests for lint/linter.h and lint/diagnostics.h: one positive and one
// negative program per rule, span accuracy against markers located in the
// source text, and a golden test for the machine-readable JSON rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "lint/baseline.h"
#include "lint/diagnostics.h"
#include "lint/fixits.h"
#include "lint/linter.h"
#include "lint/rules.h"
#include "lint/sarif.h"

namespace viewcap {
namespace {

/// All findings with `code`, in output order.
std::vector<Diagnostic> WithCode(const LintResult& result,
                                 std::string_view code) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == code) out.push_back(d);
  }
  return out;
}

bool HasCode(const LintResult& result, std::string_view code) {
  return !WithCode(result, code).empty();
}

/// Line/column (1-based) of the `occurrence`-th `marker` in `text`. The
/// tests derive expected spans from the program text itself instead of
/// hand-counted columns.
SourceLocation LocOf(std::string_view text, std::string_view marker,
                     int occurrence = 1) {
  std::size_t pos = 0;
  for (int i = 0; i < occurrence; ++i) {
    pos = text.find(marker, i == 0 ? 0 : pos + 1);
    EXPECT_NE(pos, std::string_view::npos) << "marker: " << marker;
  }
  SourceLocation loc;
  for (std::size_t i = 0; i < pos; ++i) {
    if (text[i] == '\n') {
      ++loc.line;
      loc.column = 1;
    } else {
      ++loc.column;
    }
  }
  return loc;
}

LintResult Lint(std::string_view program) { return Linter().Run(program); }

TEST(LintStructuralTest, CleanProgramHasNoFindings) {
  LintResult r = Lint(R"(
    schema { r(A, B); s(B, C); }
    view V { v := pi{A}(r); w := pi{B,C}(r * s); }
  )");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(LintStructuralTest, SyntaxErrorIsReportedAndRecoveredFrom) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(r) @ ; y := pi{B}(q); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> syntax = WithCode(r, "VCL000");
  ASSERT_EQ(syntax.size(), 1u);
  EXPECT_EQ(syntax[0].severity, Severity::kError);
  EXPECT_EQ(syntax[0].span.begin, LocOf(program, "@"));
  // Recovery continued into the next definition: the undefined relation
  // there is still diagnosed.
  EXPECT_TRUE(HasCode(r, "VCL001"));
}

TEST(LintStructuralTest, UndefinedRelation) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(r * ghost); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL001");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kError);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "ghost"));
  EXPECT_NE(d[0].message.find("ghost"), std::string::npos);
  EXPECT_TRUE(r.HasErrors());
}

TEST(LintStructuralTest, UndefinedRelationDoesNotCascadeToAttributes) {
  // TRS of `r * ghost` is unknown, so the projection list must not be
  // checked against a partial scheme.
  LintResult r = Lint(
      "schema { r(A, B); }\n"
      "view V { x := pi{Z}(r * ghost); }\n");
  EXPECT_TRUE(HasCode(r, "VCL001"));
  EXPECT_FALSE(HasCode(r, "VCL002"));
}

TEST(LintStructuralTest, UnknownAttribute) {
  const std::string program =
      "schema { r(A, B); s(C, D); }\n"
      "view V { x := pi{A,D}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL002");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kError);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "D}"));
  // The in-scheme attribute A is not flagged.
  EXPECT_NE(d[0].message.find("'D'"), std::string::npos);
}

TEST(LintStructuralTest, EmptyProjectionListAndEmptyScheme) {
  LintResult r = Lint(
      "schema { r(A, B); e(); }\n"
      "view V { x := pi{}(r); }\n");
  std::vector<Diagnostic> d = WithCode(r, "VCL003");
  ASSERT_EQ(d.size(), 2u);  // Declaration of e and the projection.
  EXPECT_EQ(d[0].severity, Severity::kError);
  EXPECT_EQ(d[1].severity, Severity::kError);
}

TEST(LintStructuralTest, DuplicateAttributeInProjection) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A,A}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL004");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kWarning);
  // The *second* occurrence in the projection list is the duplicate.
  EXPECT_EQ(d[0].span.begin, LocOf(program, "A", 3));
}

TEST(LintStructuralTest, IdentityProjectionNote) {
  LintResult r = Lint(
      "schema { r(A, B); }\n"
      "view V { x := pi{A,B}(r); }\n");
  std::vector<Diagnostic> d = WithCode(r, "VCL005");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kNote);
  // A proper projection is not an identity.
  EXPECT_FALSE(HasCode(Lint("schema { r(A, B); }\n"
                            "view V { x := pi{A}(r); }\n"),
                       "VCL005"));
}

TEST(LintStructuralTest, DuplicateDefinition) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(r); }\n"
      "view W { x := pi{B}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL006");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kError);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "x", 2));
  EXPECT_NE(d[0].note.find("first defined at"), std::string::npos);
}

TEST(LintStructuralTest, ShadowedRelation) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { r := pi{A,B}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL007");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kError);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "r :="));
}

TEST(LintStructuralTest, UnusedRelation) {
  const std::string program =
      "schema { r(A, B); dusty(E, F); }\n"
      "view V { x := pi{A}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL008");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kWarning);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "dusty"));
  // A schema-only program (no definitions yet) reports nothing.
  EXPECT_TRUE(Lint("schema { r(A, B); }\n").diagnostics.empty());
}

TEST(LintStructuralTest, ConflictingDeclaration) {
  // Same scheme: a warning. Different scheme: an error.
  LintResult same = Lint(
      "schema { r(A, B); }\n"
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(r); }\n");
  std::vector<Diagnostic> ds = WithCode(same, "VCL009");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].severity, Severity::kWarning);

  LintResult diff = Lint(
      "schema { r(A, B); }\n"
      "schema { r(A, C); }\n"
      "view V { x := pi{A}(r); }\n");
  std::vector<Diagnostic> dd = WithCode(diff, "VCL009");
  ASSERT_EQ(dd.size(), 1u);
  EXPECT_EQ(dd[0].severity, Severity::kError);
  EXPECT_NE(dd[0].note.find("previously declared at 1:10"),
            std::string::npos);
}

TEST(LintSemanticTest, RedundantDefinition) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { big := r; small := pi{A}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL101");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kWarning);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "small"));
  // The witness reconstructs `small` from the rest of the view.
  EXPECT_NE(d[0].note.find("pi{A}(big)"), std::string::npos);
  // `big` is not reconstructible from `small` (B was projected away).
  EXPECT_EQ(d.size(), 1u);
}

TEST(LintSemanticTest, NonredundantViewIsClean) {
  LintResult r = Lint(
      "schema { r(A, B); }\n"
      "view V { a := pi{A}(r); b := pi{B}(r); }\n");
  EXPECT_FALSE(HasCode(r, "VCL101"));
}

TEST(LintSemanticTest, NotSimplified) {
  const std::string program =
      "schema { r(A, B, C); }\n"
      "view V { joined := pi{A,B}(r) * pi{B,C}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL102");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kWarning);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "joined"));
  // A single proper projection of a base relation is simple.
  EXPECT_FALSE(HasCode(Lint("schema { r(A, B, C); }\n"
                            "view V { x := pi{A,B}(r); }\n"),
                       "VCL102"));
}

TEST(LintSemanticTest, EquivalentDefinitions) {
  const std::string program =
      "schema { r(A, B, C); }\n"
      "view V { good := pi{A,B}(r); dup := pi{A,B}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL103");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kWarning);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "dup"));
  EXPECT_NE(d[0].note.find("'good' is defined at"), std::string::npos);
  // The twins must not *also* be reported redundant via each other: that
  // would restate the same finding under a second code.
  EXPECT_FALSE(HasCode(r, "VCL101"));
}

TEST(LintSemanticTest, DistinctDefinitionsNotReportedEquivalent) {
  LintResult r = Lint(
      "schema { r(A, B, C); }\n"
      "view V { a := pi{A,B}(r); b := pi{B,C}(r); }\n");
  EXPECT_FALSE(HasCode(r, "VCL103"));
}

TEST(LintSemanticTest, ReconstructibleAcrossViews) {
  // V2 is alive (nothing answers pi{C}(r)), so the derivable 'c' gets the
  // per-definition VCL104 note rather than a whole-view VCL201.
  const std::string program =
      "schema { r(A, B, C); }\n"
      "view V1 { a := pi{A,B}(r); }\n"
      "view V2 { c := pi{A}(r); d := pi{C}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL104");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kNote);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "c :="));
  EXPECT_NE(d[0].note.find("pi{A}(a)"), std::string::npos);
  EXPECT_FALSE(HasCode(r, "VCL201"));
  // Notes never make the result failing.
  EXPECT_FALSE(r.HasErrors());
  EXPECT_FALSE(r.HasWarnings());
}

TEST(LintSemanticTest, SingleViewHasNoReconstructibleFindings) {
  LintResult r = Lint(
      "schema { r(A, B, C); }\n"
      "view V1 { a := pi{A,B}(r); c := pi{B,C}(r); }\n");
  EXPECT_FALSE(HasCode(r, "VCL104"));
}

TEST(LintSemanticTest, SemanticRulesCanBeDisabled) {
  LintOptions options;
  options.semantic = false;
  LintResult r = Linter(options).Run(
      "schema { r(A, B); }\n"
      "view V { big := r; small := pi{A}(r); }\n");
  EXPECT_FALSE(HasCode(r, "VCL101"));
  EXPECT_FALSE(HasCode(r, "VCL102"));
  EXPECT_FALSE(HasCode(r, "VCL103"));
  EXPECT_FALSE(HasCode(r, "VCL104"));
}

TEST(LintSemanticTest, BrokenDefinitionsAreExcludedFromSemanticRules) {
  // `small` duplicates `broken` structurally, but `broken` never resolved;
  // no semantic rule may fire on or against it.
  LintResult r = Lint(
      "schema { r(A, B); }\n"
      "view V { broken := pi{A}(ghost); small := pi{A}(r); }\n");
  EXPECT_TRUE(HasCode(r, "VCL001"));
  EXPECT_FALSE(HasCode(r, "VCL101"));
  EXPECT_FALSE(HasCode(r, "VCL103"));
}

TEST(LintResultTest, DiagnosticsAreSortedByPosition) {
  LintResult r = Lint(
      "schema { r(A, B); unused(E, F); }\n"
      "view V { x := pi{A}(ghost); y := pi{Z}(r); }\n");
  ASSERT_GE(r.diagnostics.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      r.diagnostics.begin(), r.diagnostics.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        return a.span.begin < b.span.begin;
      }));
}

TEST(LintRenderTest, TextFormat) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(ghost); }\n";
  LintResult r = Lint(program);
  std::string text = RenderText(r.diagnostics, "demo.vcp");
  EXPECT_NE(
      text.find(
          "demo.vcp:2:21: error: undefined relation 'ghost' [VCL001]"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("1 error, 0 warnings, 0 notes."), std::string::npos)
      << text;
  // No findings renders nothing (callers print their own "clean" line).
  EXPECT_EQ(RenderText({}, "demo.vcp"), "");
}

TEST(LintRenderTest, JsonGolden) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(q); }\n";
  LintResult r = Lint(program);
  const std::string expected =
      "{\"file\": \"demo.vcp\", \"diagnostics\": [\n"
      "  {\"severity\": \"error\", \"code\": \"VCL001\", \"line\": 2, "
      "\"column\": 21, \"endLine\": 2, \"endColumn\": 22, "
      "\"message\": \"undefined relation 'q'\"}\n"
      "], \"errors\": 1, \"warnings\": 0, \"notes\": 0}\n";
  EXPECT_EQ(RenderJson(r.diagnostics, "demo.vcp"), expected);
}

TEST(LintRenderTest, JsonEscapesSpecialCharacters) {
  std::vector<Diagnostic> diags;
  diags.push_back(Diagnostic{Severity::kWarning, "VCL999",
                             SourceSpan{{1, 1}, {1, 2}},
                             "a \"quoted\"\tmessage\n", ""});
  std::string json = RenderJson(diags, "odd\\name.vcp");
  EXPECT_NE(json.find("odd\\\\name.vcp"), std::string::npos) << json;
  EXPECT_NE(json.find("a \\\"quoted\\\"\\tmessage\\n"), std::string::npos)
      << json;
}

TEST(LintRenderTest, JsonEmptyDiagnostics) {
  std::string json = RenderJson({}, "clean.vcp");
  EXPECT_EQ(json,
            "{\"file\": \"clean.vcp\", \"diagnostics\": "
            "[], \"errors\": 0, \"warnings\": 0, \"notes\": 0}\n");
}

// --------------------------------------------------- whole-program rules

TEST(LintProgramTest, SubsumedViewIsReported) {
  const std::string program =
      "schema { r(A, B, C); }\n"
      "view V1 { a := pi{A,B}(r); b := pi{B,C}(r); }\n"
      "view V2 { c := pi{A}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL201");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kWarning);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "V2"));
  EXPECT_NE(d[0].note.find("c = "), std::string::npos);
  // The fix-it deletes the whole `view V2 { ... }` block.
  ASSERT_EQ(d[0].fixits.size(), 1u);
  EXPECT_EQ(d[0].fixits[0].replacement, "");
  EXPECT_EQ(d[0].fixits[0].span.begin, LocOf(program, "view V2"));
  // A subsumed view's definitions are not *also* noted reconstructible:
  // VCL201 states the stronger fact.
  EXPECT_FALSE(HasCode(r, "VCL104"));
}

TEST(LintProgramTest, LiveViewIsNotReportedSubsumed) {
  // Nothing answers pi{C}(r), so V2 is alive; and a single-view program
  // has no "rest" to subsume against.
  EXPECT_FALSE(HasCode(Lint("schema { r(A, B, C); }\n"
                            "view V1 { a := pi{A,B}(r); }\n"
                            "view V2 { c := pi{C}(r); }\n"),
                       "VCL201"));
  EXPECT_FALSE(HasCode(Lint("schema { r(A, B, C); }\n"
                            "view OnlyOne { a := pi{A,B}(r); }\n"),
                       "VCL201"));
}

TEST(LintProgramTest, MutuallySubsumedViewsEliminateGreedily) {
  // Each view answers the other. Deleting both would lose pi{A}(r) from
  // the program, so the greedy order must flag exactly one.
  LintResult r = Lint(
      "schema { r(A, B, C); }\n"
      "view V1 { a := pi{A}(r); }\n"
      "view V2 { b := pi{A}(r); }\n");
  EXPECT_EQ(WithCode(r, "VCL201").size(), 1u);
}

TEST(LintProgramTest, SubsumedViewWithUnresolvedDefinitionIsSkipped) {
  // V2's second definition does not resolve (undefined relation), so its
  // capacity is unknown and no subsumption verdict may be issued.
  LintResult r = Lint(
      "schema { r(A, B, C); }\n"
      "view V1 { a := pi{A,B}(r); b := pi{B,C}(r); }\n"
      "view V2 { c := pi{A}(r); d := pi{A}(ghost); }\n");
  EXPECT_TRUE(HasCode(r, "VCL001"));
  EXPECT_FALSE(HasCode(r, "VCL201"));
}

TEST(LintProgramTest, SubsumedViewFixitRemovesTheBlock) {
  const std::string program =
      "schema { r(A, B, C); }\n"
      "view V1 { a := pi{A,B}(r); b := pi{B,C}(r); }\n"
      "view V2 { c := pi{A}(r); }\n";
  FixOutcome outcome = FixProgram(program, LintOptions{});
  EXPECT_TRUE(outcome.clean);
  EXPECT_EQ(outcome.text.find("V2"), std::string::npos) << outcome.text;
  EXPECT_NE(outcome.text.find("view V1"), std::string::npos);
  LintResult after = Lint(outcome.text);
  EXPECT_FALSE(HasCode(after, "VCL201"));
  EXPECT_EQ(after.Fixable(), 0u);
}

TEST(LintProgramTest, CompositionCapacityLossIsNoted) {
  const std::string program =
      "schema { r(A, B, C); }\n"
      "view Inner { a := pi{A,B}(r); b := pi{B,C}(r); }\n"
      "view Outer { o := pi{A}(a); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL202");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kNote);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "Outer"));
  EXPECT_NE(d[0].message.find("'Inner'"), std::string::npos);
  EXPECT_NE(d[0].note.find("Section 1.3"), std::string::npos);
}

TEST(LintProgramTest, LosslessCompositionIsSilent) {
  // Outer re-exports every definition of Inner: nothing is lost.
  LintResult r = Lint(
      "schema { r(A, B, C); }\n"
      "view Inner { a := pi{A,B}(r); b := pi{B,C}(r); }\n"
      "view Outer { o1 := pi{A,B}(a); o2 := pi{B,C}(b); }\n");
  EXPECT_FALSE(HasCode(r, "VCL202"));
}

TEST(LintProgramTest, MixedLeavesAreNotAComposition) {
  // Outer reads a base relation next to the view: Cap(Outer) is not
  // comparable to Cap(Inner) by construction, so the rule stays silent.
  LintResult r = Lint(
      "schema { r(A, B, C); s(C, D); }\n"
      "view Inner { a := pi{A,B}(r); b := pi{B,C}(r); }\n"
      "view Outer { o := pi{A}(a * s); }\n");
  EXPECT_FALSE(HasCode(r, "VCL202"));
}

TEST(LintProgramTest, DefinitionCycleIsAnError) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(y); y := pi{A}(x); z := pi{A,B}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL203");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kError);
  EXPECT_EQ(d[0].span.begin, LocOf(program, "x :="));
  EXPECT_NE(d[0].message.find("x -> y -> x"), std::string::npos);
}

TEST(LintProgramTest, SelfReferenceIsACycle) {
  LintResult r = Lint(
      "schema { r(A, B); }\n"
      "view V { w := pi{A}(w); }\n");
  EXPECT_TRUE(HasCode(r, "VCL203"));
}

TEST(LintProgramTest, CycleRuleRunsWithoutSemanticPass) {
  LintOptions options;
  options.semantic = false;
  LintResult r = Linter(options).Run(
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(y); y := pi{A}(x); }\n");
  EXPECT_TRUE(HasCode(r, "VCL203"));
}

TEST(LintProgramTest, AcyclicReferencesAndShadowsAreNotCycles) {
  // A chain is not a cycle, and a definition shadowing a base relation
  // resolves its own name to the base (the shadowing itself is VCL007).
  EXPECT_FALSE(HasCode(Lint("schema { r(A, B); }\n"
                            "view V { x := pi{A,B}(r); y := pi{A}(x); }\n"),
                       "VCL203"));
  LintResult shadowed = Lint(
      "schema { r(A, B); }\n"
      "view V { r := pi{A}(r); }\n");
  EXPECT_TRUE(HasCode(shadowed, "VCL007"));
  EXPECT_FALSE(HasCode(shadowed, "VCL203"));
}

TEST(LintProgramTest, DeterminacyBoundaryNoteBeyondTheFragment) {
  LintOptions options;
  options.limits.max_candidates = 1;
  // Q is answerable from W, but only through both projections inside the
  // join: the enumeration has to find it, and one candidate is too few.
  LintResult r = Linter(options).Run(
      "schema { r(A, B, C); }\n"
      "view W { w1 := pi{A,B}(r); w2 := pi{B,C}(r); }\n"
      "view Q { q := pi{A}(r) * pi{C}(r); }\n");
  std::vector<Diagnostic> d = WithCode(r, "VCL204");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kNote);
  EXPECT_NE(d[0].message.find("view 'Q'"), std::string::npos);
  // Joins present: the note cites the undecidability of the general case.
  EXPECT_NE(d[0].note.find("arXiv:1501.01817"), std::string::npos);
}

TEST(LintProgramTest, NoDeterminacyNoteWhenSearchesConclude) {
  EXPECT_FALSE(HasCode(Lint("schema { r(A, B, C); }\n"
                            "view V1 { a := pi{A,B}(r); }\n"
                            "view V2 { c := pi{C}(r); }\n"),
                       "VCL204"));
  // A join-free program never needs the enumeration: every definition is
  // one row pi_Y(r), settled by the canonical witness or the refutation,
  // so even a one-candidate budget leaves every whole-program check
  // conclusive.
  LintOptions starved;
  starved.limits.max_candidates = 1;
  EXPECT_FALSE(HasCode(Linter(starved).Run("schema { r(A, B, C); s(C, D); }\n"
                                           "view V1 { a := pi{A,B}(r); }\n"
                                           "view V2 { b := pi{B,C}(r); }\n"
                                           "view V3 { c := pi{A,C}(r); }\n"
                                           "view V4 { d := pi{C}(s); }\n"),
                       "VCL204"));
}

TEST(LintProgramTest, SemanticSkippedNoteNamesTheThreshold) {
  LintOptions options;
  options.max_semantic_definitions = 1;
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { a := pi{A}(r); b := pi{B}(r); }\n";
  LintResult r = Linter(options).Run(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL010");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].severity, Severity::kNote);
  EXPECT_NE(d[0].message.find("max_semantic_definitions = 1"),
            std::string::npos);
  // The skipped pass reported nothing semantic.
  EXPECT_FALSE(HasCode(r, "VCL101"));
  EXPECT_FALSE(HasCode(r, "VCL201"));
}

TEST(LintProgramTest, NoSkippedNoteUnderTheThresholdOrWhenDisabled) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { a := pi{A}(r); b := pi{B}(r); }\n";
  EXPECT_FALSE(HasCode(Lint(program), "VCL010"));
  LintOptions options;
  options.semantic = false;  // Explicitly off is a choice, not a surprise.
  EXPECT_FALSE(HasCode(Linter(options).Run(program), "VCL010"));
}

// ---------------------------------------------------------------- fix-its

TEST(LintFixitTest, DuplicateAttributeFixitDropsTheRepeat) {
  const std::string program =
      "schema { r(A, B, C); }\n"
      "view V { x := pi{A, B, B}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL004");
  ASSERT_EQ(d.size(), 1u);
  ASSERT_EQ(d[0].fixits.size(), 1u);
  ApplyOutcome out = ApplyEdits(program, d[0].fixits);
  EXPECT_NE(out.text.find("pi{A, B}(r)"), std::string::npos) << out.text;
}

TEST(LintFixitTest, IdentityProjectionFixitUnwrapsTheOperand) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{B, A}(r); }\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL005");
  ASSERT_EQ(d.size(), 1u);
  ASSERT_EQ(d[0].fixits.size(), 1u);
  EXPECT_EQ(d[0].fixits[0].replacement, "r");
  ApplyOutcome out = ApplyEdits(program, d[0].fixits);
  EXPECT_NE(out.text.find("x := r;"), std::string::npos) << out.text;
}

TEST(LintFixitTest, RedundantDefinitionFixitDeletesTheStatement) {
  const std::string program =
      "schema { r(A, B, C); }\n"
      "view V {\n"
      "  keep := pi{A,B}(r);\n"
      "  gone := pi{A}(r);\n"
      "}\n";
  LintResult r = Lint(program);
  std::vector<Diagnostic> d = WithCode(r, "VCL101");
  ASSERT_EQ(d.size(), 1u);
  ASSERT_EQ(d[0].fixits.size(), 1u);
  ApplyOutcome out = ApplyEdits(program, d[0].fixits);
  EXPECT_EQ(out.text.find("gone"), std::string::npos) << out.text;
  // The statement's line disappears entirely, not leaving a blank.
  EXPECT_EQ(out.text.find("\n\n"), std::string::npos) << out.text;
  EXPECT_FALSE(HasCode(Lint(out.text), "VCL101"));
}

TEST(LintFixitTest, FixProgramReachesAFixpointOnNestedFindings) {
  // The outer identity projection hides another one: one pass cannot fix
  // both, so FixProgram must iterate.
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A,B}(pi{A,B}(pi{A,B,B}(r))); }\n";
  FixOutcome outcome = FixProgram(program, LintOptions{});
  EXPECT_TRUE(outcome.clean);
  EXPECT_GE(outcome.rounds, 2u);
  // Every pi{A,B} over r(A, B) is an identity, so the fixpoint unwraps the
  // whole tower (deduping {A,B,B} on the way) down to the bare relation.
  EXPECT_NE(outcome.text.find("x := r;"), std::string::npos) << outcome.text;
  // Idempotence: fixing the fixed program changes nothing.
  FixOutcome again = FixProgram(outcome.text, LintOptions{});
  EXPECT_TRUE(again.clean);
  EXPECT_EQ(again.edits_applied, 0u);
  EXPECT_EQ(again.text, outcome.text);
}

TEST(LintFixitTest, LineMapRoundTrip) {
  const std::string text = "ab\ncdef\n\ng";
  LineMap map(text);
  EXPECT_EQ(map.Offset({1, 1}), 0u);
  EXPECT_EQ(map.Offset({2, 3}), 5u);
  EXPECT_EQ(map.Offset({2, 99}), 7u);  // Clamped to the line's end.
  EXPECT_EQ(map.Offset({4, 1}), 9u);
  for (std::size_t offset : {0u, 3u, 5u, 8u, 9u}) {
    EXPECT_EQ(map.Offset(map.Location(offset)), offset) << offset;
  }
  EXPECT_EQ(map.Slice(SourceSpan{{2, 1}, {2, 5}}), "cdef");
}

TEST(LintFixitTest, ApplyEditsResolvesOverlapsGreedily) {
  const std::string text = "abcdef";
  std::vector<TextEdit> edits;
  edits.push_back(TextEdit{SourceSpan{{1, 1}, {1, 5}}, "X"});
  edits.push_back(TextEdit{SourceSpan{{1, 3}, {1, 6}}, "Y"});  // Overlaps.
  ApplyOutcome out = ApplyEdits(text, edits);
  EXPECT_EQ(out.text, "Xef");
  EXPECT_EQ(out.applied, 1u);
  EXPECT_EQ(out.skipped, 1u);
}

// ------------------------------------------------------------------ SARIF

TEST(LintSarifTest, GoldenRunResultAndRegion) {
  const std::string program =
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(q); }\n";
  LintResult r = Lint(program);
  const std::string sarif = RenderSarif(r.diagnostics, "demo.vcp");
  EXPECT_NE(sarif.find("\"$schema\": "
                       "\"https://json.schemastore.org/sarif-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"viewcap-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"VCL001\", \"name\": "
                       "\"undefined-relation\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"VCL001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleIndex\": 0"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"message\": {\"text\": \"undefined relation "
                       "'q'\"}"),
            std::string::npos);
  EXPECT_NE(
      sarif.find("\"region\": {\"startLine\": 2, \"startColumn\": 21, "
                 "\"endLine\": 2, \"endColumn\": 22}"),
      std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"artifactLocation\": {\"uri\": \"demo.vcp\"}"),
            std::string::npos);
}

TEST(LintSarifTest, EmptyGolden) {
  EXPECT_EQ(
      RenderSarif({}, "clean.vcp"),
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"viewcap-lint\",\n"
      "          \"informationUri\": \"https://github.com/viewcap/viewcap\",\n"
      "          \"rules\": []\n"
      "        }\n"
      "      },\n"
      "      \"results\": []\n"
      "    }\n"
      "  ]\n"
      "}\n");
}

TEST(LintSarifTest, FixesCarryDeletedRegionsAndInsertions) {
  std::vector<Diagnostic> diags;
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = "VCL005";
  d.span = SourceSpan{{3, 8}, {3, 20}};
  d.message = "identity projection";
  d.fixits.push_back(TextEdit{SourceSpan{{3, 8}, {3, 20}}, "r"});
  diags.push_back(std::move(d));
  const std::string sarif = RenderSarif(diags, "p.vcp");
  EXPECT_NE(
      sarif.find("{\"deletedRegion\": {\"startLine\": 3, \"startColumn\": 8, "
                 "\"endLine\": 3, \"endColumn\": 20}, "
                 "\"insertedContent\": {\"text\": \"r\"}}"),
      std::string::npos)
      << sarif;
}

TEST(LintSarifTest, RuleRegistryCoversEveryLintedCode) {
  // Every code the linter can emit has registry metadata, so SARIF rules
  // are never bare ids.
  for (std::string_view code :
       {"VCL000", "VCL001", "VCL002", "VCL003", "VCL004", "VCL005", "VCL006",
        "VCL007", "VCL008", "VCL009", "VCL010", "VCL101", "VCL102", "VCL103",
        "VCL104", "VCL201", "VCL202", "VCL203", "VCL204"}) {
    const RuleInfo* info = FindRule(code);
    ASSERT_NE(info, nullptr) << code;
    EXPECT_FALSE(info->name.empty()) << code;
    EXPECT_FALSE(info->summary.empty()) << code;
  }
  EXPECT_EQ(FindRule("VCL999"), nullptr);
}

// --------------------------------------------------------------- baseline

TEST(LintBaselineTest, WriteParseFilterRoundTrip) {
  const std::string program =
      "schema { r(A, B, C); unused(E, F); }\n"
      "view V { x := pi{A}(r); y := pi{A}(ghost); }\n";
  LintResult r = Lint(program);
  ASSERT_GE(r.diagnostics.size(), 2u);
  const std::string text = WriteBaseline(r.diagnostics);
  Baseline baseline = ParseBaseline(text);
  std::size_t suppressed = 0;
  std::vector<Diagnostic> survivors =
      FilterBaseline(r.diagnostics, baseline, &suppressed);
  EXPECT_TRUE(survivors.empty());
  EXPECT_EQ(suppressed, r.diagnostics.size());
}

TEST(LintBaselineTest, NewFindingsSurviveTheBaseline) {
  LintResult before = Lint(
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(ghost); }\n");
  Baseline baseline = ParseBaseline(WriteBaseline(before.diagnostics));
  LintResult after = Lint(
      "schema { r(A, B); }\n"
      "view V { x := pi{A}(ghost); y := pi{A}(phantom); }\n");
  std::vector<Diagnostic> survivors =
      FilterBaseline(after.diagnostics, baseline);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_NE(survivors[0].message.find("phantom"), std::string::npos);
}

TEST(LintBaselineTest, EntriesSuppressAtMostTheirCount) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = "VCL101";
  d.message = "same message";
  Baseline baseline = ParseBaseline("VCL101\tsame message\n");
  std::size_t suppressed = 0;
  std::vector<Diagnostic> survivors =
      FilterBaseline({d, d}, baseline, &suppressed);
  EXPECT_EQ(survivors.size(), 1u);
  EXPECT_EQ(suppressed, 1u);
}

TEST(LintBaselineTest, CommentsAndMalformedLinesAreIgnored) {
  Baseline baseline = ParseBaseline(
      "# header comment\n"
      "\n"
      "no tab on this line\n"
      "VCL001\tundefined relation 'q'\n");
  EXPECT_EQ(baseline.entries.size(), 1u);
}

// ------------------------------------------------------------- vcl-ignore

TEST(LintIgnoreTest, SameLineCommentSuppresses) {
  LintResult r = Lint(
      "schema { r(A, B); }\n"
      "view V { x := pi{B, A}(r); } # vcl-ignore(VCL005)\n");
  EXPECT_FALSE(HasCode(r, "VCL005"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintIgnoreTest, StandaloneCommentTargetsTheNextLine) {
  LintResult r = Lint(
      "schema { r(A, B); }\n"
      "view V {\n"
      "  -- vcl-ignore(VCL005)\n"
      "  x := pi{B, A}(r);\n"
      "}\n");
  EXPECT_FALSE(HasCode(r, "VCL005"));
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(LintIgnoreTest, OtherCodesAndLinesStillReport) {
  // The directive names VCL004; the VCL005 on the same line and the
  // VCL005 on another line are untouched.
  LintResult r = Lint(
      "schema { r(A, B); }\n"
      "view V { x := pi{B, A}(r); } // vcl-ignore(VCL004)\n");
  EXPECT_TRUE(HasCode(r, "VCL005"));
  EXPECT_EQ(r.suppressed, 0u);
}

TEST(LintIgnoreTest, MultipleCodesInOneDirective) {
  LintResult r = Lint(
      "schema { r(A, B); unused(E, F); }\n"
      "view V { x := pi{B, A}(r); }\n"
      "-- trailing standalone comment, targets nothing\n");
  ASSERT_TRUE(HasCode(r, "VCL005"));
  ASSERT_TRUE(HasCode(r, "VCL008"));
  LintResult s = Lint(
      "schema { r(A, B); unused(E, F); } # vcl-ignore(VCL008, VCL005)\n"
      "view V { x := pi{B, A}(r); } # vcl-ignore(VCL005)\n");
  EXPECT_FALSE(HasCode(s, "VCL008"));
  EXPECT_FALSE(HasCode(s, "VCL005"));
  EXPECT_EQ(s.suppressed, 2u);
}

}  // namespace
}  // namespace viewcap
