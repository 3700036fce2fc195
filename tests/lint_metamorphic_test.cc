// Metamorphic tests for viewcap-lint: properties that must hold across
// program transformations that cannot change what the rules mean.
//
// 1. Renaming invariance — findings (codes and their counts) are identical
//    under a consistent renaming of relations, attributes, views and
//    definitions: every rule reasons about structure, never about names.
// 2. Thread invariance — SearchLimits::threads is a pure performance
//    knob: the full diagnostic list (codes, spans, messages, fix-its) is
//    bit-identical for any count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/diagnostics.h"
#include "lint/linter.h"

namespace viewcap {
namespace {

/// code -> occurrence count, the renaming-invariant fingerprint of a run.
std::map<std::string, std::size_t> CodeCounts(const LintResult& result) {
  std::map<std::string, std::size_t> counts;
  for (const Diagnostic& d : result.diagnostics) ++counts[d.code];
  return counts;
}

/// Applies a whole-word identifier renaming to program text. Identifiers
/// in .vcp programs are [A-Za-z_][A-Za-z0-9_]*; the replacement never
/// touches partial matches ("r" inside "unrelated").
std::string Rename(std::string_view text,
                   const std::vector<std::pair<std::string, std::string>>&
                       renames) {
  auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  std::string out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (!is_word(text[i])) {
      out += text[i++];
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && is_word(text[j])) ++j;
    std::string word(text.substr(i, j - i));
    for (const auto& [from, to] : renames) {
      if (word == from) {
        word = to;
        break;
      }
    }
    out += word;
    i = j;
  }
  return out;
}

/// A program that trips structural, semantic and whole-program rules at
/// once: VCL004/005/008 (structural), VCL101/102/103 (per-view closure),
/// VCL201/202 (cross-view).
constexpr std::string_view kProgram =
    "schema { r(A, B, C); s(C, D); unused(E, F); }\n"
    "view Inner {\n"
    "  a := pi{A,B}(r);\n"
    "  b := pi{B,C}(r);\n"
    "  twin := pi{A,B}(r);\n"
    "  doubled := pi{A, A}(r);\n"
    "  ident := pi{C, D}(s);\n"
    "  wide := pi{A,B}(r) * pi{B,C}(r);\n"
    "}\n"
    "view Outer { o := pi{A}(a); }\n"
    "view Dead { d := pi{B}(r); }\n";

TEST(LintMetamorphicTest, FindingsAreInvariantUnderRenaming) {
  const LintResult base = Linter().Run(kProgram);
  ASSERT_FALSE(base.diagnostics.empty());
  // Rename every identifier class: relations, attributes, views and
  // definition names, with length changes to also shift spans.
  const std::string renamed_text = Rename(
      kProgram,
      {{"r", "relation_one"},
       {"s", "sss"},
       {"unused", "idle"},
       {"A", "Alpha"},
       {"B", "Beta"},
       {"C", "Gamma"},
       {"D", "Delta"},
       {"E", "Eps"},
       {"F", "Phi"},
       {"Inner", "Core"},
       {"Outer", "Shell"},
       {"Dead", "Gone"},
       {"a", "first"},
       {"b", "second"},
       {"twin", "copy"},
       {"doubled", "dupattr"},
       {"ident", "same"},
       {"wide", "joined"},
       {"o", "proj"},
       {"d", "dd"}});
  const LintResult renamed = Linter().Run(renamed_text);
  EXPECT_EQ(CodeCounts(base), CodeCounts(renamed))
      << "renamed program:\n"
      << renamed_text;
}

TEST(LintMetamorphicTest, FindingsAreInvariantUnderThreadCount) {
  LintOptions serial;
  serial.limits.threads = 1;
  LintOptions threaded;
  threaded.limits.threads = 8;
  const LintResult a = Linter(serial).Run(kProgram);
  const LintResult b = Linter(threaded).Run(kProgram);
  ASSERT_FALSE(a.diagnostics.empty());
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    const Diagnostic& x = a.diagnostics[i];
    const Diagnostic& y = b.diagnostics[i];
    EXPECT_EQ(x.code, y.code) << i;
    EXPECT_EQ(x.severity, y.severity) << i;
    EXPECT_TRUE(x.span.begin == y.span.begin) << i;
    EXPECT_EQ(x.message, y.message) << i;
    EXPECT_EQ(x.note, y.note) << i;
    EXPECT_EQ(x.fixits, y.fixits) << i;
  }
}

TEST(LintMetamorphicTest, ThreadCountInvarianceUnderTightBudgets) {
  // Budget exhaustion (VCL204 territory) is where a thread count could
  // plausibly change a finding; verdicts must still be deterministic.
  LintOptions serial;
  serial.limits.threads = 1;
  serial.limits.max_candidates = 64;
  LintOptions threaded = serial;
  threaded.limits.threads = 8;
  const LintResult a = Linter(serial).Run(kProgram);
  const LintResult b = Linter(threaded).Run(kProgram);
  EXPECT_EQ(CodeCounts(a), CodeCounts(b));
}

}  // namespace
}  // namespace viewcap
