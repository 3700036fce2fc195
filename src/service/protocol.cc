#include "service/protocol.h"

#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>

#include "base/strings.h"
#include "core/report.h"

namespace viewcap {

namespace {

Status Missing(std::string_view method, std::string_view field) {
  return Status::InvalidArgument(
      StrCat("method '", method, "' needs a string param '", field, "'"));
}

/// Required string param.
Result<std::string> GetString(std::string_view method, const JsonValue* params,
                              std::string_view field) {
  const JsonValue* value =
      params != nullptr ? params->Find(field) : nullptr;
  if (value == nullptr || !value->is_string()) {
    return Missing(method, field);
  }
  return value->AsString();
}

/// Optional string param ("" when absent).
std::string OptString(const JsonValue* params, std::string_view field) {
  const JsonValue* value =
      params != nullptr ? params->Find(field) : nullptr;
  return value != nullptr ? value->AsString() : std::string();
}

const JsonValue* Opt(const JsonValue* params, std::string_view field) {
  return params != nullptr ? params->Find(field) : nullptr;
}

JsonValue CountersToJson(const CacheCounters& counters) {
  JsonValue obj = JsonValue::Object();
  obj.Set("requests", JsonValue::Number(static_cast<double>(counters.requests)));
  obj.Set("hits", JsonValue::Number(static_cast<double>(counters.hits())));
  obj.Set("runs", JsonValue::Number(static_cast<double>(counters.runs)));
  obj.Set("evictions",
          JsonValue::Number(static_cast<double>(counters.evictions)));
  obj.Set("entries", JsonValue::Number(static_cast<double>(counters.entries)));
  // Derived ratio, pre-rendered so every client shows the same figure
  // ("n/a" when the cache was never consulted).
  obj.Set("hit_rate",
          JsonValue::Str(RenderHitRate(counters.hits(), counters.requests)));
  return obj;
}

JsonValue IndexStatsToJson(const IndexStats& stats) {
  auto num = [](std::size_t n) {
    return JsonValue::Number(static_cast<double>(n));
  };
  JsonValue obj = JsonValue::Object();
  JsonValue membership = JsonValue::Object();
  membership.Set("lookups", num(stats.membership_lookups));
  membership.Set("hits", num(stats.membership_hits));
  membership.Set("fallbacks", num(stats.membership_fallbacks()));
  membership.Set("hit_rate",
                 JsonValue::Str(RenderHitRate(stats.membership_hits,
                                              stats.membership_lookups)));
  obj.Set("membership", std::move(membership));
  JsonValue dominance = JsonValue::Object();
  dominance.Set("lookups", num(stats.dominance_lookups));
  dominance.Set("hits", num(stats.dominance_hits));
  dominance.Set("fallbacks", num(stats.dominance_fallbacks()));
  dominance.Set("hit_rate",
                JsonValue::Str(RenderHitRate(stats.dominance_hits,
                                             stats.dominance_lookups)));
  obj.Set("dominance", std::move(dominance));
  obj.Set("limit_mismatches", num(stats.limit_mismatches));
  return obj;
}

JsonValue ErrorToJson(const Status& status) {
  JsonValue err = JsonValue::Object();
  err.Set("code", JsonValue::Str(std::string(StatusCodeName(status.code()))));
  err.Set("message", JsonValue::Str(status.message()));
  return err;
}

/// One full reply line: {"id": ..., "result"| "error": ...}.
std::string ReplyLine(JsonValue id, const char* key, JsonValue payload) {
  JsonValue reply = JsonValue::Object();
  reply.Set("id", std::move(id));
  reply.Set(key, std::move(payload));
  return WriteJson(reply);
}

// Reads the next '\n'-terminated line of `in` into *line. A line longer
// than kMaxRequestLineBytes is consumed through its newline but not kept:
// *line is left empty and *overlong set. False at end of input when no
// byte was read.
bool ReadRequestLine(std::istream& in, std::string* line, bool* overlong) {
  line->clear();
  *overlong = false;
  std::streambuf& buf = *in.rdbuf();
  bool any = false;
  for (int c = buf.sbumpc(); c != std::char_traits<char>::eof();
       c = buf.sbumpc()) {
    any = true;
    if (c == '\n') return true;
    if (*overlong) continue;
    if (line->size() == kMaxRequestLineBytes) {
      *overlong = true;
      std::string().swap(*line);
      continue;
    }
    line->push_back(static_cast<char>(c));
  }
  return any;
}

}  // namespace

Result<Request> RequestFromJson(std::string_view method,
                                const JsonValue* params) {
  std::optional<RequestKind> kind = RequestKindFromName(method);
  if (!kind.has_value()) {
    return Status::InvalidArgument(StrCat("unknown method '", method, "'"));
  }
  Request req;
  req.kind = *kind;

  switch (req.kind) {
    case RequestKind::kList:
    case RequestKind::kLattice:
    case RequestKind::kReport:
    case RequestKind::kStats:
      break;
    case RequestKind::kLoad: {
      VIEWCAP_ASSIGN_OR_RETURN(req.program_text,
                               GetString(method, params, "program"));
      break;
    }
    case RequestKind::kExport:
    case RequestKind::kNonredundant:
    case RequestKind::kSimplify: {
      VIEWCAP_ASSIGN_OR_RETURN(req.view, GetString(method, params, "view"));
      break;
    }
    case RequestKind::kMinimize: {
      VIEWCAP_ASSIGN_OR_RETURN(req.query, GetString(method, params, "query"));
      break;
    }
    case RequestKind::kEquiv: {
      VIEWCAP_ASSIGN_OR_RETURN(req.view, GetString(method, params, "left"));
      VIEWCAP_ASSIGN_OR_RETURN(req.other_view,
                               GetString(method, params, "right"));
      break;
    }
    case RequestKind::kCompose: {
      VIEWCAP_ASSIGN_OR_RETURN(req.view, GetString(method, params, "inner"));
      VIEWCAP_ASSIGN_OR_RETURN(req.other_view,
                               GetString(method, params, "outer"));
      break;
    }
    case RequestKind::kAnswerable: {
      VIEWCAP_ASSIGN_OR_RETURN(req.view, GetString(method, params, "view"));
      VIEWCAP_ASSIGN_OR_RETURN(req.query, GetString(method, params, "query"));
      break;
    }
    case RequestKind::kCapacity: {
      VIEWCAP_ASSIGN_OR_RETURN(req.view, GetString(method, params, "view"));
      const JsonValue* leaves = Opt(params, "max_leaves");
      if (leaves == nullptr || leaves->AsSize() == 0) {
        return Status::InvalidArgument(
            "method 'capacity' needs a positive number param 'max_leaves'");
      }
      req.max_leaves = leaves->AsSize();
      break;
    }
    case RequestKind::kEval: {
      VIEWCAP_ASSIGN_OR_RETURN(req.view, GetString(method, params, "view"));
      VIEWCAP_ASSIGN_OR_RETURN(req.query, GetString(method, params, "query"));
      VIEWCAP_ASSIGN_OR_RETURN(req.data_text,
                               GetString(method, params, "data"));
      break;
    }
    case RequestKind::kLint: {
      VIEWCAP_ASSIGN_OR_RETURN(req.program_text,
                               GetString(method, params, "program"));
      req.program_path = OptString(params, "path");
      const std::string format = OptString(params, "format");
      if (format == "json") {
        req.lint.format = LintFormat::kJson;
      } else if (format == "sarif") {
        req.lint.format = LintFormat::kSarif;
      } else if (!format.empty() && format != "text") {
        return Status::InvalidArgument(
            StrCat("unknown lint format '", format, "'"));
      }
      if (const JsonValue* v = Opt(params, "semantic")) {
        req.lint.semantic = v->AsBool(true);
      }
      if (const JsonValue* v = Opt(params, "fix")) {
        req.lint.fix = v->AsBool();
      }
      if (const JsonValue* v = Opt(params, "fix_dry_run")) {
        req.lint.fix_dry_run = v->AsBool();
        if (req.lint.fix_dry_run) req.lint.fix = true;
      }
      if (const JsonValue* v = Opt(params, "baseline")) {
        req.lint.baseline_text = v->AsString();
        req.lint.have_baseline = v->is_string();
      }
      if (const JsonValue* v = Opt(params, "write_baseline")) {
        req.lint.want_baseline = v->AsBool();
      }
      if (const JsonValue* v = Opt(params, "max_semantic_definitions")) {
        req.lint.max_semantic_definitions =
            v->AsSize(req.lint.max_semantic_definitions);
      }
      break;
    }
  }

  // Common per-request knobs, valid on every method.
  if (const JsonValue* v = Opt(params, "threads")) {
    if (!v->is_number()) {
      return Status::InvalidArgument("param 'threads' must be a number");
    }
    req.threads = v->AsSize();
  }
  if (const JsonValue* v = Opt(params, "max_candidates")) {
    req.max_candidates = v->AsSize();
  }
  if (const JsonValue* v = Opt(params, "engine_stats")) {
    req.engine_stats = v->AsBool();
  }
  return req;
}

JsonValue RequestToJson(const Request& request) {
  JsonValue params = JsonValue::Object();
  switch (request.kind) {
    case RequestKind::kList:
    case RequestKind::kLattice:
    case RequestKind::kReport:
    case RequestKind::kStats:
      break;
    case RequestKind::kLoad:
      params.Set("program", JsonValue::Str(request.program_text));
      break;
    case RequestKind::kExport:
    case RequestKind::kNonredundant:
    case RequestKind::kSimplify:
      params.Set("view", JsonValue::Str(request.view));
      break;
    case RequestKind::kMinimize:
      params.Set("query", JsonValue::Str(request.query));
      break;
    case RequestKind::kEquiv:
      params.Set("left", JsonValue::Str(request.view));
      params.Set("right", JsonValue::Str(request.other_view));
      break;
    case RequestKind::kCompose:
      params.Set("inner", JsonValue::Str(request.view));
      params.Set("outer", JsonValue::Str(request.other_view));
      break;
    case RequestKind::kAnswerable:
      params.Set("view", JsonValue::Str(request.view));
      params.Set("query", JsonValue::Str(request.query));
      break;
    case RequestKind::kCapacity:
      params.Set("view", JsonValue::Str(request.view));
      params.Set("max_leaves",
                 JsonValue::Number(static_cast<double>(request.max_leaves)));
      break;
    case RequestKind::kEval:
      params.Set("view", JsonValue::Str(request.view));
      params.Set("query", JsonValue::Str(request.query));
      params.Set("data", JsonValue::Str(request.data_text));
      break;
    case RequestKind::kLint: {
      params.Set("program", JsonValue::Str(request.program_text));
      if (!request.program_path.empty()) {
        params.Set("path", JsonValue::Str(request.program_path));
      }
      const LintParams& lint = request.lint;
      if (lint.format == LintFormat::kJson) {
        params.Set("format", JsonValue::Str("json"));
      } else if (lint.format == LintFormat::kSarif) {
        params.Set("format", JsonValue::Str("sarif"));
      }
      if (!lint.semantic) params.Set("semantic", JsonValue::Bool(false));
      if (lint.fix && !lint.fix_dry_run) {
        params.Set("fix", JsonValue::Bool(true));
      }
      if (lint.fix_dry_run) params.Set("fix_dry_run", JsonValue::Bool(true));
      if (lint.have_baseline) {
        params.Set("baseline", JsonValue::Str(lint.baseline_text));
      }
      if (lint.want_baseline) {
        params.Set("write_baseline", JsonValue::Bool(true));
      }
      if (lint.max_semantic_definitions != LintParams().max_semantic_definitions) {
        params.Set("max_semantic_definitions",
                   JsonValue::Number(
                       static_cast<double>(lint.max_semantic_definitions)));
      }
      break;
    }
  }
  if (request.threads.has_value()) {
    params.Set("threads",
               JsonValue::Number(static_cast<double>(*request.threads)));
  }
  if (request.max_candidates > 0) {
    params.Set("max_candidates",
               JsonValue::Number(static_cast<double>(request.max_candidates)));
  }
  if (request.engine_stats) params.Set("engine_stats", JsonValue::Bool(true));

  JsonValue msg = JsonValue::Object();
  msg.Set("method", JsonValue::Str(std::string(RequestKindName(request.kind))));
  msg.Set("params", std::move(params));
  return msg;
}

JsonValue EngineStatsToJson(const EngineStats& stats) {
  JsonValue obj = JsonValue::Object();
  obj.Set("row_embedding", CountersToJson(stats.row_embedding));
  obj.Set("expansion", CountersToJson(stats.expansion));
  obj.Set("verdict", CountersToJson(stats.verdict));
  obj.Set("dominance", CountersToJson(stats.dominance));
  obj.Set("intern_requests",
          JsonValue::Number(static_cast<double>(stats.intern_requests)));
  obj.Set("intern_hits",
          JsonValue::Number(static_cast<double>(stats.intern_hits)));
  obj.Set("interned_classes",
          JsonValue::Number(static_cast<double>(stats.interned_classes)));
  obj.Set("reduce_runs",
          JsonValue::Number(static_cast<double>(stats.reduce_runs)));
  obj.Set("canonical_key_runs",
          JsonValue::Number(static_cast<double>(stats.canonical_key_runs)));
  JsonValue membership = JsonValue::Object();
  membership.Set("canonical_witness",
                 JsonValue::Number(
                     static_cast<double>(stats.membership.canonical_witness)));
  membership.Set("refutation", JsonValue::Number(static_cast<double>(
                                   stats.membership.refutation)));
  membership.Set("enumeration", JsonValue::Number(static_cast<double>(
                                    stats.membership.enumeration)));
  obj.Set("membership", std::move(membership));
  // Candidate-filter activity under its one `scalar` key. Like the
  // rendered table, the entry appears once the filter has run, and the
  // survivor rate is pre-rendered.
  JsonValue filter = JsonValue::Object();
  const FilterCounters& f = stats.filter;
  if (f.invocations != 0) {
    JsonValue entry = JsonValue::Object();
    entry.Set("invocations",
              JsonValue::Number(static_cast<double>(f.invocations)));
    entry.Set("rows", JsonValue::Number(static_cast<double>(f.rows)));
    entry.Set("survivors",
              JsonValue::Number(static_cast<double>(f.survivors)));
    entry.Set("survivor_rate",
              JsonValue::Str(RenderHitRate(f.survivors, f.rows)));
    filter.Set("scalar", std::move(entry));
  }
  obj.Set("filter", std::move(filter));
  return obj;
}

JsonValue ResponseToJson(const Response& response, RequestKind kind) {
  JsonValue result = JsonValue::Object();
  result.Set("ok", JsonValue::Bool(response.ok()));
  result.Set("exit_code",
             JsonValue::Number(static_cast<double>(response.exit_code)));
  result.Set("output", JsonValue::Str(response.output));
  if (!response.note.empty()) {
    result.Set("note", JsonValue::Str(response.note));
  }
  if (response.verdict.has_value()) {
    result.Set("verdict", JsonValue::Bool(*response.verdict));
  }
  if (response.inconclusive) {
    result.Set("inconclusive", JsonValue::Bool(true));
  }
  if (!response.witness.empty()) {
    result.Set("witness", JsonValue::Str(response.witness));
  }
  if (kind == RequestKind::kLint) {
    JsonValue lint = JsonValue::Object();
    lint.Set("errors",
             JsonValue::Number(static_cast<double>(response.lint_errors)));
    lint.Set("warnings",
             JsonValue::Number(static_cast<double>(response.lint_warnings)));
    lint.Set("notes",
             JsonValue::Number(static_cast<double>(response.lint_notes)));
    lint.Set("suppressed",
             JsonValue::Number(static_cast<double>(response.lint_suppressed)));
    if (response.edits_applied > 0 || response.fix_rounds > 0) {
      lint.Set("edits_applied",
               JsonValue::Number(static_cast<double>(response.edits_applied)));
      lint.Set("fix_rounds",
               JsonValue::Number(static_cast<double>(response.fix_rounds)));
      lint.Set("fix_clean", JsonValue::Bool(response.fix_clean));
    }
    if (!response.fixed_text.empty()) {
      lint.Set("fixed_program", JsonValue::Str(response.fixed_text));
    }
    if (!response.baseline_text.empty()) {
      lint.Set("baseline", JsonValue::Str(response.baseline_text));
    }
    result.Set("lint", std::move(lint));
  }
  if (response.has_engine_stats) {
    result.Set("engine_stats", EngineStatsToJson(response.engine_stats));
  }
  if (response.has_index_stats) {
    result.Set("index", IndexStatsToJson(response.index_stats));
  }
  return result;
}

LineOutcome HandleRequestLine(Dispatcher& dispatcher, ServerStats* server,
                              std::string_view line) {
  if (server != nullptr) {
    server->requests.fetch_add(1, std::memory_order_relaxed);
  }
  LineOutcome outcome;

  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    outcome.reply =
        ReplyLine(JsonValue::Null(), "error", ErrorToJson(parsed.status()));
    return outcome;
  }
  JsonValue id = JsonValue::Null();
  if (const JsonValue* found = parsed->Find("id")) id = *found;
  const JsonValue* method = parsed->Find("method");
  if (method == nullptr || !method->is_string()) {
    outcome.reply = ReplyLine(
        std::move(id), "error",
        ErrorToJson(Status::InvalidArgument(
            "request must be an object with a string 'method'")));
    return outcome;
  }

  // Server-level methods, outside the dispatcher's request model.
  if (method->AsString() == "ping") {
    JsonValue result = JsonValue::Object();
    result.Set("ok", JsonValue::Bool(true));
    outcome.reply = ReplyLine(std::move(id), "result", std::move(result));
    return outcome;
  }
  if (method->AsString() == "shutdown") {
    JsonValue result = JsonValue::Object();
    result.Set("ok", JsonValue::Bool(true));
    result.Set("shutting_down", JsonValue::Bool(true));
    outcome.reply = ReplyLine(std::move(id), "result", std::move(result));
    outcome.shutdown = true;
    return outcome;
  }

  Result<Request> request =
      RequestFromJson(method->AsString(), parsed->Find("params"));
  if (!request.ok()) {
    outcome.reply =
        ReplyLine(std::move(id), "error", ErrorToJson(request.status()));
    return outcome;
  }

  Response response = dispatcher.Handle(*request);
  if (!response.ok()) {
    outcome.reply =
        ReplyLine(std::move(id), "error", ErrorToJson(response.status));
    return outcome;
  }
  JsonValue result = ResponseToJson(response, request->kind);
  if (request->kind == RequestKind::kStats && server != nullptr) {
    result.Set("uptime_seconds", JsonValue::Number(server->UptimeSeconds()));
    result.Set("requests",
               JsonValue::Number(static_cast<double>(
                   server->requests.load(std::memory_order_relaxed))));
    result.Set("sessions",
               JsonValue::Number(static_cast<double>(
                   server->sessions.load(std::memory_order_relaxed))));
  }
  outcome.reply = ReplyLine(std::move(id), "result", std::move(result));
  return outcome;
}

bool ServeSession(Dispatcher& dispatcher, ServerStats* server,
                  std::istream& in, std::ostream& out) {
  if (server != nullptr) {
    server->sessions.fetch_add(1, std::memory_order_relaxed);
  }
  std::string line;
  bool overlong = false;
  while (ReadRequestLine(in, &line, &overlong)) {
    LineOutcome outcome;
    if (overlong) {
      if (server != nullptr) {
        server->requests.fetch_add(1, std::memory_order_relaxed);
      }
      outcome.reply = ReplyLine(
          JsonValue::Null(), "error",
          ErrorToJson(Status::InvalidArgument(
              StrCat("request line longer than ", kMaxRequestLineBytes,
                     " bytes"))));
    } else if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    } else {
      outcome = HandleRequestLine(dispatcher, server, line);
    }
    out << outcome.reply << '\n';
    out.flush();
    if (outcome.shutdown) return true;
  }
  return false;
}

}  // namespace viewcap
