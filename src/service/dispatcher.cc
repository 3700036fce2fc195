#include "service/dispatcher.h"

#include <utility>

#include "algebra/printer.h"
#include "base/strings.h"
#include "core/report.h"
#include "lint/baseline.h"
#include "lint/fixits.h"
#include "lint/linter.h"
#include "lint/sarif.h"

namespace viewcap {

namespace {

/// Marks `resp` failed with the CLI error exit code. The output
/// accumulated so far is kept (the CLI prints stdout even on failure).
void Fail(Response* resp, Status status) {
  resp->status = std::move(status);
  resp->exit_code = 1;
}

}  // namespace

std::string_view RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kList: return "list";
    case RequestKind::kExport: return "export";
    case RequestKind::kEquiv: return "equiv";
    case RequestKind::kAnswerable: return "answerable";
    case RequestKind::kNonredundant: return "nonredundant";
    case RequestKind::kSimplify: return "simplify";
    case RequestKind::kLattice: return "lattice";
    case RequestKind::kMinimize: return "minimize";
    case RequestKind::kCapacity: return "capacity";
    case RequestKind::kEval: return "eval";
    case RequestKind::kCompose: return "compose";
    case RequestKind::kReport: return "report";
    case RequestKind::kLint: return "lint";
    case RequestKind::kLoad: return "load";
    case RequestKind::kStats: return "stats";
  }
  return "unknown";
}

std::optional<RequestKind> RequestKindFromName(std::string_view name) {
  static constexpr struct {
    std::string_view name;
    RequestKind kind;
  } kNames[] = {
      {"list", RequestKind::kList},
      {"export", RequestKind::kExport},
      {"equiv", RequestKind::kEquiv},
      {"answerable", RequestKind::kAnswerable},
      {"membership", RequestKind::kAnswerable},
      {"nonredundant", RequestKind::kNonredundant},
      {"simplify", RequestKind::kSimplify},
      {"lattice", RequestKind::kLattice},
      {"minimize", RequestKind::kMinimize},
      {"capacity", RequestKind::kCapacity},
      {"eval", RequestKind::kEval},
      {"compose", RequestKind::kCompose},
      {"report", RequestKind::kReport},
      {"analyze", RequestKind::kReport},
      {"lint", RequestKind::kLint},
      {"load", RequestKind::kLoad},
      {"stats", RequestKind::kStats},
  };
  for (const auto& entry : kNames) {
    if (entry.name == name) return entry.kind;
  }
  return std::nullopt;
}

SearchLimits Dispatcher::LimitsFor(const Request& request) const {
  SearchLimits limits = workspace_->default_limits();
  if (request.threads.has_value()) limits.threads = *request.threads;
  if (request.max_candidates > 0) {
    limits.max_candidates = request.max_candidates;
  }
  return limits;
}

Response Dispatcher::Handle(const Request& request) {
  workspace_->CountRequest();
  if (request.kind == RequestKind::kLint) return HandleLint(request);

  Response resp;
  const SearchLimits limits = LimitsFor(request);
  std::string report;
  switch (request.kind) {
    case RequestKind::kLoad: {
      Status st = workspace_->Load(request.program_text);
      if (!st.ok()) Fail(&resp, std::move(st));
      break;
    }
    case RequestKind::kList:
      workspace_->WithShared([&](const Analyzer& a) {
        for (const std::string& name : a.ViewNames()) {
          auto view = a.GetView(name);
          resp.output += (*view)->ToString();
        }
        return 0;
      });
      break;
    case RequestKind::kExport:
      workspace_->WithShared([&](const Analyzer& a) {
        auto result = a.ExportView(request.view);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = *result;
        }
        return 0;
      });
      break;
    case RequestKind::kEquiv:
      workspace_->WithShared([&](const Analyzer& a) {
        auto result =
            a.CheckEquivalence(request.view, request.other_view, limits,
                               &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
          resp.verdict = result->equivalent;
          resp.inconclusive = result->inconclusive;
          resp.exit_code = result->equivalent ? 0 : 3;
        }
        return 0;
      });
      break;
    case RequestKind::kLattice:
      workspace_->WithShared([&](const Analyzer& a) {
        auto result = a.CompareAllViews(limits, &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
        }
        return 0;
      });
      break;
    case RequestKind::kAnswerable:
      workspace_->WithShared([&](const Analyzer& a) {
        auto result =
            a.CheckAnswerable(request.view, request.query, limits, &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
          resp.verdict = result->member;
          resp.inconclusive = !result->member && result->budget_exhausted;
          if (result->member && result->witness != nullptr) {
            resp.witness = ToString(*result->witness, a.catalog());
          }
          resp.exit_code = result->member ? 0 : 3;
        }
        return 0;
      });
      break;
    case RequestKind::kNonredundant:
      workspace_->WithExclusive([&](Analyzer& a) {
        auto result = a.EliminateRedundancy(request.view, limits, &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
        }
        return 0;
      });
      break;
    case RequestKind::kSimplify:
      workspace_->WithExclusive([&](Analyzer& a) {
        auto result = a.SimplifyView(request.view, limits, &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
        }
        return 0;
      });
      break;
    case RequestKind::kMinimize:
      workspace_->WithShared([&](const Analyzer& a) {
        auto result = a.MinimizeQuery(request.query, limits, &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
        }
        return 0;
      });
      break;
    case RequestKind::kCapacity:
      workspace_->WithShared([&](const Analyzer& a) {
        auto result = a.EnumerateViewCapacity(request.view,
                                              request.max_leaves, limits,
                                              256, &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
        }
        return 0;
      });
      break;
    case RequestKind::kEval:
      workspace_->WithShared([&](const Analyzer& a) {
        auto result = a.EvaluateViewQuery(request.view, request.query,
                                          request.data_text, &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
        }
        return 0;
      });
      break;
    case RequestKind::kCompose:
      workspace_->WithExclusive([&](Analyzer& a) {
        auto result =
            a.ComposeViews(request.view, request.other_view, &report);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = report;
        }
        return 0;
      });
      break;
    case RequestKind::kReport:
      workspace_->WithExclusive([&](Analyzer& a) {
        ReportOptions options;
        options.limits = limits;
        auto result = RenderReport(a, options);
        if (!result.ok()) {
          Fail(&resp, result.status());
        } else {
          resp.output = *result;
        }
        return 0;
      });
      break;
    case RequestKind::kStats:
      resp.engine_stats = workspace_->EngineStatsSnapshot();
      resp.has_engine_stats = true;
      resp.output = RenderEngineStats(resp.engine_stats);
      if (auto index = workspace_->IndexStatsSnapshot()) {
        resp.index_stats = *index;
        resp.has_index_stats = true;
        resp.output += StrCat("\n", RenderIndexStats(resp.index_stats));
      }
      break;
    case RequestKind::kLint:
      break;  // Handled above.
  }

  // The historical --engine-stats contract: the snapshot is rendered
  // after the command output (even for failed commands), so in a one-shot
  // run it describes exactly the command that just executed. kStats IS
  // the snapshot, so it never double-appends.
  if (request.engine_stats && request.kind != RequestKind::kStats) {
    resp.engine_stats = workspace_->EngineStatsSnapshot();
    resp.has_engine_stats = true;
    resp.output += StrCat("\n", RenderEngineStats(resp.engine_stats));
    if (auto index = workspace_->IndexStatsSnapshot()) {
      resp.index_stats = *index;
      resp.has_index_stats = true;
      resp.output += StrCat("\n", RenderIndexStats(resp.index_stats));
    }
  }
  return resp;
}

Response Dispatcher::HandleLint(const Request& request) const {
  Response resp;
  LintOptions options;
  options.semantic = request.lint.semantic;
  options.limits = LimitsFor(request);
  options.max_semantic_definitions = request.lint.max_semantic_definitions;

  std::string text = request.program_text;
  if (request.lint.fix || request.lint.fix_dry_run) {
    FixOutcome outcome = FixProgram(text, options);
    resp.edits_applied = outcome.edits_applied;
    resp.fix_rounds = outcome.rounds;
    resp.fix_clean = outcome.clean;
    resp.fixed_text = outcome.text;
    if (request.lint.fix_dry_run) {
      // Dry run: the fixed program IS the output; the file stays
      // untouched and no findings are rendered.
      resp.output = outcome.text;
      resp.note = StrCat("viewcap_cli: ", outcome.edits_applied, " edit",
                         outcome.edits_applied == 1 ? "" : "s", " in ",
                         outcome.rounds, " round",
                         outcome.rounds == 1 ? "" : "s", " (dry run)");
      resp.exit_code = outcome.clean ? 0 : 1;
      return resp;
    }
    resp.note = StrCat("viewcap_cli: applied ", outcome.edits_applied,
                       " edit", outcome.edits_applied == 1 ? "" : "s",
                       " in ", outcome.rounds, " round",
                       outcome.rounds == 1 ? "" : "s");
    text = outcome.text;  // Report the remaining (unfixable) findings.
  }

  Linter linter(options);
  LintResult result = linter.Run(text);
  if (request.lint.want_baseline) {
    resp.baseline_text = WriteBaseline(result.diagnostics);
  }
  if (request.lint.have_baseline) {
    std::size_t suppressed = 0;
    result.diagnostics =
        FilterBaseline(std::move(result.diagnostics),
                       ParseBaseline(request.lint.baseline_text),
                       &suppressed);
    result.suppressed += suppressed;
  }
  const std::string& path = request.program_path;
  switch (request.lint.format) {
    case LintFormat::kJson:
      resp.output = RenderJson(result.diagnostics, path);
      break;
    case LintFormat::kSarif:
      resp.output = RenderSarif(result.diagnostics, path);
      break;
    case LintFormat::kText:
      if (result.diagnostics.empty()) {
        resp.output = StrCat(path, ": no problems found");
        if (result.suppressed > 0) {
          resp.output += StrCat(" (", result.suppressed, " suppressed)");
        }
        resp.output += "\n";
      } else {
        resp.output = RenderText(result.diagnostics, path);
        if (result.suppressed > 0) {
          resp.output += StrCat(result.suppressed, " suppressed.\n");
        }
      }
      break;
  }
  resp.lint_errors = result.Count(Severity::kError);
  resp.lint_warnings = result.Count(Severity::kWarning);
  resp.lint_notes = result.Count(Severity::kNote);
  resp.lint_suppressed = result.suppressed;
  if (resp.lint_errors > 0) {
    resp.exit_code = 4;
  } else if (resp.lint_warnings > 0) {
    resp.exit_code = 3;
  }
  return resp;
}

}  // namespace viewcap
