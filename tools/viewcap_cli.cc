// viewcap_cli: one-shot command-line front end for the view-capacity
// analyses.
//
// This is a thin shell over the service core (src/service): argv is
// parsed by the canonical grammar (service/cli.h) into a typed Request,
// the Request runs through the same Dispatcher the viewcapd daemon uses,
// and the Response renders back to stdout/stderr/exit code. All file I/O
// happens here at the edges; the dispatcher never touches the filesystem.
//
// Usage:
//   viewcap_cli <program-file> <command> [args...] [--engine-stats]
//   viewcap_cli lint <program-file> [--format=text|json|sarif]
//       [--no-semantic] [--fix | --fix-dry-run] [--baseline=<file>]
//       [--write-baseline=<file>] [--max-semantic-definitions=N]
// Commands:
//   list                          print the loaded views
//   equiv <V> <W>                 decide view equivalence (Theorem 2.4.12)
//   answerable <V> <query-expr>   Cap membership (Theorem 2.4.11)
//   nonredundant <V>              redundancy elimination (Theorem 3.1.4)
//   simplify <V>                  the normal form (Theorem 4.1.3)
//   lattice                       pairwise dominance of all views
//   minimize <query-expr>         tableau minimization of a base query
//   export <V>                    print a view as a reloadable program
//   capacity <V> <max-leaves>     list Cap(V) members up to a size budget
//   eval <V> <view-query> <data-file>
//                                 run a view query against a data file
//   compose <inner> <outer>       flatten a view-over-a-view to the base
//   report (alias: analyze)       full markdown audit of every view
//   lint                          static analysis: structural and
//                                 paper-backed semantic diagnostics
//
// --engine-stats (any analysis command, and index build) appends the
// run's memoizing-engine cache statistics after the command output.
//
// --threads=N runs up to N independent membership questions at once
// (0 = one per hardware thread): the two directions of equiv, the
// leave-one-out tests of nonredundant, and the views of index build. Each
// membership search, and every other command, runs serially. Verdicts and
// witnesses are identical for every N; the default is 1.
//
// lint exit codes are severity-based: 0 = clean (notes allowed),
// 3 = warnings found, 4 = errors found (1 = I/O failure, 2 = usage).
//
// The persistent capacity index (src/index, DESIGN.md) has three entry
// points here:
//   index build <program> <index-file>   saturate and write the index
//   index query <index-file> <program> <command> [args...]
//                                        attach, then run the command
//   index info <index-file>              print the header without a program
// plus the global --index=<index-file> flag (same as `index query`). A
// stale or corrupt index is a hard error (exit 1), never silently served.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.h"
#include "index/index_reader.h"
#include "index/index_writer.h"
#include "service/cli.h"
#include "service/dispatcher.h"

namespace {

int CannotOpen(const std::string& path) {
  std::fprintf(stderr, "viewcap_cli: cannot open '%s'\n", path.c_str());
  return 1;
}

int CannotWrite(const std::string& path) {
  std::fprintf(stderr, "viewcap_cli: cannot write '%s'\n", path.c_str());
  return 1;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto parsed = viewcap::ParseCommandLine(args);
  if (!parsed.ok()) {
    if (!parsed.status().message().empty()) {
      std::fprintf(stderr, "viewcap_cli: %s\n",
                   parsed.status().message().c_str());
    }
    std::fputs(viewcap::UsageText().c_str(), stderr);
    return 2;
  }
  viewcap::CliInvocation inv = std::move(parsed).value();
  viewcap::Request& req = inv.request;

  // `index info` inspects the file header alone — no program involved.
  if (inv.index_action == viewcap::IndexAction::kInfo) {
    auto info = viewcap::IndexReader::Inspect(inv.index_path);
    if (!info.ok()) {
      std::fprintf(stderr, "viewcap_cli: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    std::printf("capacity index: %s\n", inv.index_path.c_str());
    std::printf("format version: %u (fingerprint scheme %u)\n",
                info->format_version, info->fingerprint_scheme_version);
    std::printf("file size: %llu bytes\n",
                static_cast<unsigned long long>(info->file_size));
    std::printf("catalog fingerprint: %s\n",
                info->catalog_fingerprint.c_str());
    auto u = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf("serving limits: extra_leaves=%llu max_leaves=%llu "
                "max_candidates=%llu\n",
                u(info->extra_leaves), u(info->max_leaves),
                u(info->max_candidates));
    std::printf("build budget: max_leaves=%llu max_entries_per_view=%llu\n",
                u(info->build_max_leaves), u(info->build_max_entries));
    std::printf("sections: %llu classes, %llu sets, %llu verdicts, "
                "%llu dominance entries\n",
                u(info->classes), u(info->sets), u(info->verdicts),
                u(info->dominance_entries));
    return 0;
  }

  if (!viewcap::ReadFileToString(inv.program_path, &req.program_text)) {
    return CannotOpen(inv.program_path);
  }

  viewcap::Workspace workspace;
  viewcap::Dispatcher dispatcher(&workspace);
  const bool is_lint = req.kind == viewcap::RequestKind::kLint;

  // `index build` loads the program, saturates, and writes the file; the
  // ordinary dispatch path is never entered.
  if (inv.index_action == viewcap::IndexAction::kBuild) {
    const viewcap::Status loaded = workspace.Load(req.program_text);
    if (!loaded.ok()) {
      std::fprintf(stderr, "viewcap_cli: %s\n", loaded.ToString().c_str());
      return 1;
    }
    viewcap::IndexBuildOptions options;
    options.max_leaves = inv.index_build_leaves;
    options.max_entries_per_view = inv.index_build_entries;
    options.limits = workspace.default_limits();
    if (req.threads.has_value()) options.limits.threads = *req.threads;
    if (req.max_candidates > 0) {
      options.limits.max_candidates = req.max_candidates;
    }
    auto stats = workspace.BuildIndex(inv.index_path, options);
    if (!stats.ok()) {
      std::fprintf(stderr, "viewcap_cli: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("wrote %s: %zu classes, %zu sets, %zu verdicts, "
                "%zu dominance entries (%zu bytes)\n",
                inv.index_path.c_str(), stats->classes, stats->sets,
                stats->verdicts, stats->dominance_entries, stats->bytes);
    if (req.engine_stats) {
      std::printf("\n%s", viewcap::RenderEngineStats(
                               workspace.EngineStatsSnapshot())
                               .c_str());
    }
    return 0;
  }

  if (is_lint) {
    // Lint runs before (instead of) program loading: its whole point is
    // to diagnose programs the loader would reject.
    if (!inv.baseline_path.empty()) {
      if (!viewcap::ReadFileToString(inv.baseline_path,
                                     &req.lint.baseline_text)) {
        return CannotOpen(inv.baseline_path);
      }
      req.lint.have_baseline = true;
    }
  } else {
    viewcap::Request load;
    load.kind = viewcap::RequestKind::kLoad;
    load.program_text = req.program_text;
    viewcap::Response loaded = dispatcher.Handle(load);
    if (!loaded.ok()) {
      std::fprintf(stderr, "viewcap_cli: %s\n",
                   loaded.status.ToString().c_str());
      return 1;
    }
    // The data file is read only after a successful load, like the
    // historical shell.
    if (req.kind == viewcap::RequestKind::kEval) {
      if (!viewcap::ReadFileToString(inv.data_path, &req.data_text)) {
        return CannotOpen(inv.data_path);
      }
    }
    // Attach after load: the index is validated against the loaded
    // program's catalog fingerprint, and a stale or corrupt index is a
    // hard error rather than a silent live fallback.
    if (inv.index_action == viewcap::IndexAction::kQuery) {
      const viewcap::Status attached =
          workspace.AttachIndex(inv.index_path);
      if (!attached.ok()) {
        std::fprintf(stderr, "viewcap_cli: %s\n",
                     attached.ToString().c_str());
        return 1;
      }
    }
  }

  viewcap::Response resp = dispatcher.Handle(req);

  // Lint file side effects happen before anything prints, so a write
  // failure exits 1 without partial output.
  if (is_lint && resp.ok()) {
    if (inv.fix_in_place && resp.edits_applied > 0) {
      if (!WriteFile(inv.program_path, resp.fixed_text)) {
        return CannotWrite(inv.program_path);
      }
    }
    if (!inv.write_baseline_path.empty() && !req.lint.fix_dry_run) {
      if (!WriteFile(inv.write_baseline_path, resp.baseline_text)) {
        return CannotWrite(inv.write_baseline_path);
      }
    }
  }

  if (!resp.note.empty()) {
    std::fprintf(stderr, "%s\n", resp.note.c_str());
  }
  std::cout << resp.output;
  if (!resp.ok()) {
    std::fprintf(stderr, "viewcap_cli: %s\n", resp.status.ToString().c_str());
  }
  return resp.exit_code;
}
