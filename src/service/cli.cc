#include "service/cli.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/strings.h"

namespace viewcap {

namespace {

Status UsageError(std::string message = "") {
  return Status::InvalidArgument(std::move(message));
}

/// One flag occurrence, split on the first '='.
struct Flag {
  std::string name;   // Includes the leading "--".
  std::string value;  // Empty when no '='.
  bool has_value = false;
};

Flag SplitFlag(const std::string& token) {
  Flag flag;
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    flag.name = token;
  } else {
    flag.name = token.substr(0, eq);
    flag.value = token.substr(eq + 1);
    flag.has_value = true;
  }
  return flag;
}

}  // namespace

bool ParseCount(const std::string& text, std::size_t* value) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *value = static_cast<std::size_t>(parsed);
  return true;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return false;
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string UsageText() {
  return
      "usage: viewcap_cli <program-file> <command> [args...] "
      "[--engine-stats] [--threads=N]\n"
      "       viewcap_cli lint <program-file> "
      "[--format=text|json|sarif] [--no-semantic] [--threads=N]\n"
      "                   [--fix | --fix-dry-run] "
      "[--baseline=<file>] [--write-baseline=<file>]\n"
      "commands:\n"
      "  list\n"
      "  equiv <V> <W>\n"
      "  answerable <V> <query-expr>\n"
      "  nonredundant <V>\n"
      "  simplify <V>\n"
      "  lattice\n"
      "  minimize <query-expr>\n"
      "  export <V>\n"
      "  capacity <V> <max-leaves>\n"
      "  eval <V> <view-query> <data-file>\n"
      "  compose <inner> <outer>\n"
      "  report | analyze [--engine-stats]\n"
      "  lint [--format=text|json|sarif] [--no-semantic] [--fix]\n"
      "persistent capacity index:\n"
      "  index build <program-file> <index-file> "
      "[--build-leaves=N] [--build-entries=N]\n"
      "  index query <index-file> <program-file> <command> [args...]\n"
      "  index info <index-file>\n"
      "  (any command also accepts --index=<index-file> to serve from "
      "an index)\n";
}

Result<CliInvocation> ParseCommandLine(
    const std::vector<std::string>& argv) {
  CliInvocation inv;
  Request& req = inv.request;

  std::vector<std::string> positionals;
  std::vector<Flag> flags;
  for (const std::string& token : argv) {
    if (StartsWith(token, "--")) {
      flags.push_back(SplitFlag(token));
    } else {
      positionals.push_back(token);
    }
  }
  // The index subcommand leads its own grammar. build/info are handled
  // fully here; query strips its prefix and re-enters the ordinary
  // grammar below with the index path recorded for the shell to attach.
  if (!positionals.empty() && positionals[0] == "index") {
    if (positionals.size() < 2) {
      return UsageError("index needs a subcommand: build, query, or info");
    }
    const std::string& sub = positionals[1];
    if (sub == "build") {
      if (positionals.size() != 4) {
        return UsageError(
            "usage: viewcap_cli index build <program-file> <index-file>");
      }
      inv.index_action = IndexAction::kBuild;
      inv.program_path = positionals[2];
      inv.index_path = positionals[3];
      req.program_path = inv.program_path;
    } else if (sub == "info") {
      if (positionals.size() != 3) {
        return UsageError("usage: viewcap_cli index info <index-file>");
      }
      inv.index_action = IndexAction::kInfo;
      inv.index_path = positionals[2];
    } else if (sub == "query") {
      if (positionals.size() < 4) {
        return UsageError(
            "usage: viewcap_cli index query <index-file> <program-file> "
            "<command> [args...]");
      }
      inv.index_action = IndexAction::kQuery;
      inv.index_path = positionals[2];
      positionals.erase(positionals.begin(), positionals.begin() + 3);
    } else {
      return UsageError(StrCat("unknown index subcommand '", sub, "'"));
    }
    if (inv.index_action != IndexAction::kQuery) {
      // build/info take only the build knobs and the common limits; build
      // also reports its engine's statistics on request.
      for (const Flag& flag : flags) {
        if (flag.name == "--build-leaves" || flag.name == "--build-entries") {
          if (inv.index_action != IndexAction::kBuild) {
            return UsageError(StrCat("flag '", flag.name,
                                     "' is only valid for 'index build'"));
          }
          std::size_t value = 0;
          if (!ParseCount(flag.value, &value) || value == 0) {
            return UsageError(
                StrCat("bad count '", flag.value, "' for ", flag.name));
          }
          (flag.name == "--build-leaves" ? inv.index_build_leaves
                                         : inv.index_build_entries) = value;
        } else if (flag.name == "--threads") {
          std::size_t value = 0;
          if (!ParseCount(flag.value, &value)) {
            return UsageError(StrCat("bad thread count '", flag.value, "'"));
          }
          req.threads = value;
        } else if (flag.name == "--max-candidates") {
          std::size_t value = 0;
          if (!ParseCount(flag.value, &value) || value == 0) {
            return UsageError(
                StrCat("bad candidate budget '", flag.value, "'"));
          }
          req.max_candidates = value;
        } else if (flag.name == "--engine-stats" &&
                   inv.index_action == IndexAction::kBuild) {
          req.engine_stats = true;
        } else {
          return UsageError(StrCat("unknown flag '", flag.name,
                                   "' for 'index ", sub, "'"));
        }
      }
      return inv;
    }
  }

  if (positionals.size() < 2) return UsageError();

  // Resolve the command. Lint may lead ("lint <file>", the documented
  // form) or trail ("<file> lint", the historical alternative); both
  // normalize to the same Request here — no dispatch special case.
  std::string command;
  std::vector<std::string> args;  // Positional command arguments.
  if (positionals[0] == "lint") {
    command = "lint";
    inv.program_path = positionals[1];
    args.assign(positionals.begin() + 2, positionals.end());
  } else if (positionals[1] == "lint") {
    command = "lint";
    inv.program_path = positionals[0];
    args.assign(positionals.begin() + 2, positionals.end());
  } else {
    inv.program_path = positionals[0];
    command = positionals[1];
    args.assign(positionals.begin() + 2, positionals.end());
  }

  std::optional<RequestKind> kind = RequestKindFromName(command);
  if (!kind.has_value() || *kind == RequestKind::kLoad ||
      *kind == RequestKind::kStats) {
    return UsageError(StrCat("unknown command '", command, "'"));
  }
  req.kind = *kind;
  req.program_path = inv.program_path;
  const bool is_lint = req.kind == RequestKind::kLint;

  // Flags: one table, contexts enforced uniformly.
  for (const Flag& flag : flags) {
    if (flag.name == "--threads") {
      std::size_t value = 0;
      if (!ParseCount(flag.value, &value)) {
        return UsageError(StrCat("bad thread count '", flag.value, "'"));
      }
      req.threads = value;
    } else if (flag.name == "--max-candidates") {
      std::size_t value = 0;
      if (!ParseCount(flag.value, &value) || value == 0) {
        return UsageError(
            StrCat("bad candidate budget '", flag.value, "'"));
      }
      req.max_candidates = value;
    } else if (flag.name == "--engine-stats") {
      // Accepted everywhere; the dispatcher ignores it for lint (which
      // runs on a private engine), matching the historical behavior.
      req.engine_stats = true;
    } else if (flag.name == "--index") {
      if (is_lint) {
        return UsageError("flag '--index' is not valid for lint");
      }
      if (flag.value.empty()) {
        return UsageError("flag '--index' needs a file path");
      }
      inv.index_path = flag.value;
      inv.index_action = IndexAction::kQuery;
    } else if (flag.name == "--build-leaves" ||
               flag.name == "--build-entries") {
      return UsageError(
          StrCat("flag '", flag.name, "' is only valid for 'index build'"));
    } else if (flag.name == "--format") {
      if (!is_lint) {
        return UsageError(
            StrCat("flag '", flag.name, "' is only valid for lint"));
      }
      if (flag.value == "text") {
        req.lint.format = LintFormat::kText;
      } else if (flag.value == "json") {
        req.lint.format = LintFormat::kJson;
      } else if (flag.value == "sarif") {
        req.lint.format = LintFormat::kSarif;
      } else {
        return UsageError(StrCat("unknown format '", flag.value, "'"));
      }
    } else if (flag.name == "--no-semantic") {
      if (!is_lint) {
        return UsageError(
            StrCat("flag '", flag.name, "' is only valid for lint"));
      }
      req.lint.semantic = false;
    } else if (flag.name == "--fix") {
      if (!is_lint) {
        return UsageError(
            StrCat("flag '", flag.name, "' is only valid for lint"));
      }
      req.lint.fix = true;
      inv.fix_in_place = true;
    } else if (flag.name == "--fix-dry-run") {
      if (!is_lint) {
        return UsageError(
            StrCat("flag '", flag.name, "' is only valid for lint"));
      }
      req.lint.fix = true;
      req.lint.fix_dry_run = true;
    } else if (flag.name == "--baseline") {
      if (!is_lint) {
        return UsageError(
            StrCat("flag '", flag.name, "' is only valid for lint"));
      }
      inv.baseline_path = flag.value;
    } else if (flag.name == "--write-baseline") {
      if (!is_lint) {
        return UsageError(
            StrCat("flag '", flag.name, "' is only valid for lint"));
      }
      inv.write_baseline_path = flag.value;
      req.lint.want_baseline = true;
    } else if (flag.name == "--max-semantic-definitions") {
      if (!is_lint) {
        return UsageError(
            StrCat("flag '", flag.name, "' is only valid for lint"));
      }
      std::size_t value = 0;
      if (!ParseCount(flag.value, &value)) {
        return UsageError(
            StrCat("bad definition count '", flag.value, "'"));
      }
      req.lint.max_semantic_definitions = value;
    } else {
      return UsageError(StrCat("unknown flag '", flag.name, "'"));
    }
  }
  if (req.lint.fix && req.lint.fix_dry_run) inv.fix_in_place = false;

  // Positional arity per command.
  auto need = [&](std::size_t n) -> Status {
    if (args.size() != n) return UsageError();
    return Status::OK();
  };
  switch (req.kind) {
    case RequestKind::kList:
    case RequestKind::kLattice:
    case RequestKind::kReport:
    case RequestKind::kLint:
      VIEWCAP_RETURN_NOT_OK(need(0));
      break;
    case RequestKind::kExport:
    case RequestKind::kNonredundant:
    case RequestKind::kSimplify:
      VIEWCAP_RETURN_NOT_OK(need(1));
      req.view = args[0];
      break;
    case RequestKind::kMinimize:
      VIEWCAP_RETURN_NOT_OK(need(1));
      req.query = args[0];
      break;
    case RequestKind::kEquiv:
    case RequestKind::kCompose:
      VIEWCAP_RETURN_NOT_OK(need(2));
      req.view = args[0];
      req.other_view = args[1];
      break;
    case RequestKind::kAnswerable:
      VIEWCAP_RETURN_NOT_OK(need(2));
      req.view = args[0];
      req.query = args[1];
      break;
    case RequestKind::kCapacity: {
      VIEWCAP_RETURN_NOT_OK(need(2));
      req.view = args[0];
      std::size_t leaves = 0;
      if (!ParseCount(args[1], &leaves) || leaves == 0) {
        return UsageError(StrCat("bad leaf budget '", args[1], "'"));
      }
      req.max_leaves = leaves;
      break;
    }
    case RequestKind::kEval:
      VIEWCAP_RETURN_NOT_OK(need(3));
      req.view = args[0];
      req.query = args[1];
      inv.data_path = args[2];
      break;
    case RequestKind::kLoad:
    case RequestKind::kStats:
      return UsageError();  // Unreachable: filtered above.
  }
  return inv;
}

}  // namespace viewcap
