// The typed request/session model of the service core.
//
// One Request describes one command — the same set the one-shot CLI has
// always exposed (list, equiv, answerable, nonredundant, simplify,
// lattice, minimize, export, capacity, eval, compose, report) plus lint
// (with fix-its, baselines and SARIF), program loading, and the live
// `stats` method. One Response carries everything any front end needs:
// the byte-exact text the one-shot CLI prints to stdout, the CLI exit
// code, structured verdict facts for protocol clients, and the lint /
// engine-stats payloads.
//
// The Dispatcher is the single code path turning a Request into a
// Response against a Workspace. Both viewcap_cli (argv -> Request ->
// render) and viewcapd (JSON line -> Request -> JSON line) are thin
// shells over it, which is what makes their verdicts bit-identical by
// construction — the differential tests in tests/service_test.cc and
// tools/diff_cli_daemon.py pin that equality end to end.
//
// File I/O stays outside: Requests carry program/data/baseline *text*,
// Responses carry fixed-program/baseline text back, and the shells do the
// reading and writing. The dispatcher never touches the filesystem, so a
// daemon can serve requests for files it has no access to.
#ifndef VIEWCAP_SERVICE_DISPATCHER_H_
#define VIEWCAP_SERVICE_DISPATCHER_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "service/workspace.h"

namespace viewcap {

/// Every command the service core can execute. kLoad/kStats exist for the
/// persistent front end; the rest map 1:1 onto the historical CLI verbs.
enum class RequestKind {
  kList,
  kExport,
  kEquiv,
  kAnswerable,
  kNonredundant,
  kSimplify,
  kLattice,
  kMinimize,
  kCapacity,
  kEval,
  kCompose,
  kReport,
  kLint,
  kLoad,
  kStats,
};

/// Canonical protocol method name ("answerable", "lint", ...).
std::string_view RequestKindName(RequestKind kind);

/// Inverse of RequestKindName, accepting the CLI aliases too
/// ("membership" -> kAnswerable, "analyze" -> kReport).
std::optional<RequestKind> RequestKindFromName(std::string_view name);

/// Output format of a lint request.
enum class LintFormat { kText, kJson, kSarif };

/// Lint-only request knobs, mirroring the historical `lint` flags.
struct LintParams {
  LintFormat format = LintFormat::kText;
  /// Run the closure-based VCL1xx/VCL2xx rules.
  bool semantic = true;
  /// Apply every machine-applicable fix-it to a fixpoint; the fixed
  /// program comes back in Response::fixed_text (the CLI shell writes it
  /// over the input file) and the remaining findings are reported.
  bool fix = false;
  /// Like fix, but the fixed program becomes Response::output and no
  /// findings are rendered (the historical --fix-dry-run contract).
  bool fix_dry_run = false;
  /// Baseline file *content* to subtract (empty + !have_baseline = none).
  std::string baseline_text;
  bool have_baseline = false;
  /// Serialize the run's findings as a baseline into
  /// Response::baseline_text (the CLI shell writes --write-baseline).
  bool want_baseline = false;
  /// Mirrors LintOptions::max_semantic_definitions.
  std::size_t max_semantic_definitions = 24;
};

/// One command for the dispatcher. Field use by kind:
///   kLoad                program_text
///   kList, kLattice, kReport, kStats   (none)
///   kExport, kNonredundant, kSimplify  view
///   kEquiv               view, other_view
///   kAnswerable          view, query
///   kMinimize            query
///   kCapacity            view, max_leaves
///   kEval                view, query, data_text
///   kCompose             view (inner), other_view (outer)
///   kLint                program_text, program_path (label), lint
struct Request {
  RequestKind kind = RequestKind::kList;
  std::string program_text;
  /// Path label used in rendered lint output and diagnostics; never opened.
  std::string program_path;
  std::string view;
  std::string other_view;
  std::string query;
  std::string data_text;
  std::size_t max_leaves = 0;
  /// Per-request SearchLimits::threads: how many independent membership
  /// questions one call may run at once (1 = serial, 0 = hardware
  /// concurrency). Unset keeps the workspace default. Verdicts are
  /// identical for every value.
  std::optional<std::size_t> threads;
  /// Per-request candidate budget override; 0 keeps the workspace default.
  std::size_t max_candidates = 0;
  /// Append the engine's cache statistics after the command output
  /// (the historical --engine-stats flag).
  bool engine_stats = false;
  LintParams lint;
};

/// What a command produced. `output` is byte-identical to what the
/// one-shot CLI prints on stdout for the same request; `exit_code`
/// follows the CLI conventions (0 ok; 1 error; 3 negative verdict /
/// lint warnings; 4 lint errors).
struct Response {
  Status status = Status::OK();
  int exit_code = 0;
  std::string output;
  /// Informational line the CLI prints to stderr even on success (the
  /// lint fix summary); empty otherwise.
  std::string note;

  /// Boolean verdict for kEquiv (equivalent) / kAnswerable (member).
  std::optional<bool> verdict;
  /// A negative verdict was reached with an exhausted search budget, so
  /// it is not a proof.
  bool inconclusive = false;
  /// Rendered witness expression for a positive kAnswerable verdict.
  std::string witness;

  // Lint facts (kLint only).
  std::size_t lint_errors = 0;
  std::size_t lint_warnings = 0;
  std::size_t lint_notes = 0;
  std::size_t lint_suppressed = 0;
  std::size_t edits_applied = 0;
  std::size_t fix_rounds = 0;
  bool fix_clean = false;
  /// The fixed program after a fix run (also set on dry runs).
  std::string fixed_text;
  /// Serialized baseline when LintParams::want_baseline was set.
  std::string baseline_text;

  /// Engine statistics snapshot (kStats, or any request with
  /// Request::engine_stats).
  bool has_engine_stats = false;
  EngineStats engine_stats;

  /// Serving counters of the attached persistent capacity index. Only
  /// populated alongside engine_stats and only when the workspace has an
  /// index attached, so index-less deployments render byte-identically to
  /// builds that predate the index.
  bool has_index_stats = false;
  IndexStats index_stats;

  bool ok() const { return status.ok(); }
};

/// The single execution path from Request to Response. Stateless apart
/// from the borrowed Workspace; safe for concurrent Handle calls from
/// many sessions (locking per the Workspace contract).
class Dispatcher {
 public:
  explicit Dispatcher(Workspace* workspace) : workspace_(workspace) {}

  Response Handle(const Request& request);

 private:
  /// Request limits = workspace defaults + per-request overrides.
  SearchLimits LimitsFor(const Request& request) const;

  Response HandleLint(const Request& request) const;

  Workspace* workspace_;
};

}  // namespace viewcap

#endif  // VIEWCAP_SERVICE_DISPATCHER_H_
