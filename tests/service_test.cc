// Tests for the service core (src/service): the JSON value model, the
// canonical CLI grammar, the Dispatcher request/response contract for
// every RequestKind, the JSON-RPC protocol round trip, and the
// in-process CLI-vs-protocol differential that pins the bit-identical
// verdict guarantee the daemon advertises.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "service/cli.h"
#include "service/dispatcher.h"
#include "service/json.h"
#include "service/protocol.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

using testing::Unwrap;

// Example 3.1.5: V and W are equivalent views over one ternary relation.
constexpr const char* kExampleProgram = R"(
schema { r(A, B, C); }
view V { v := pi{A,B}(r) * pi{B,C}(r); }
view W {
  w1 := pi{A,B}(r);
  w2 := pi{B,C}(r);
}
)";

constexpr const char* kExampleData = R"(
r(1, 1, 1);
r(2, 1, 3);
r(2, 2, 2);
)";

// --- JSON value model ---------------------------------------------------

TEST(ServiceJsonTest, ParsesScalarsAndStructure) {
  JsonValue v = Unwrap(ParseJson(
      R"({"a": 1, "b": [true, null, "x\n\"y\""], "c": {"d": -2.5}})"));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("a")->AsSize(), 1u);
  const JsonValue* b = v.Find("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].AsBool());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].AsString(), "x\n\"y\"");
  EXPECT_EQ(v.Find("c")->Find("d")->AsNumber(), -2.5);
}

TEST(ServiceJsonTest, RoundTripsThroughWriter) {
  const std::string text =
      R"({"s":"line1\nline2\t\"q\"","n":42,"f":-0.125,"a":[1,2],"o":{}})";
  JsonValue v = Unwrap(ParseJson(text));
  EXPECT_EQ(WriteJson(v), text);
}

TEST(ServiceJsonTest, WritesIntegersWithoutFraction) {
  EXPECT_EQ(WriteJson(JsonValue::Number(7)), "7");
  EXPECT_EQ(WriteJson(JsonValue::Number(0)), "0");
}

TEST(ServiceJsonTest, ParsesUnicodeEscapes) {
  JsonValue v = Unwrap(ParseJson(R"(["Aé"])"));
  EXPECT_EQ(v.items()[0].AsString(), "A\xc3\xa9");
}

TEST(ServiceJsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  // Depth cap against adversarial nesting.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// --- Canonical CLI grammar ----------------------------------------------

TEST(ServiceCliTest, ParsesAnalysisCommand) {
  CliInvocation inv = Unwrap(ParseCommandLine(
      {"prog.vcp", "equiv", "V", "W", "--threads=4", "--engine-stats"}));
  EXPECT_EQ(inv.request.kind, RequestKind::kEquiv);
  EXPECT_EQ(inv.program_path, "prog.vcp");
  EXPECT_EQ(inv.request.view, "V");
  EXPECT_EQ(inv.request.other_view, "W");
  ASSERT_TRUE(inv.request.threads.has_value());
  EXPECT_EQ(*inv.request.threads, 4u);
  EXPECT_TRUE(inv.request.engine_stats);
}

TEST(ServiceCliTest, LintLeadingAndTrailingFormsAgree) {
  CliInvocation lead = Unwrap(
      ParseCommandLine({"lint", "prog.vcp", "--format=sarif", "--fix"}));
  CliInvocation trail = Unwrap(
      ParseCommandLine({"prog.vcp", "lint", "--format=sarif", "--fix"}));
  for (const CliInvocation* inv : {&lead, &trail}) {
    EXPECT_EQ(inv->request.kind, RequestKind::kLint);
    EXPECT_EQ(inv->program_path, "prog.vcp");
    EXPECT_EQ(inv->request.lint.format, LintFormat::kSarif);
    EXPECT_TRUE(inv->request.lint.fix);
    EXPECT_TRUE(inv->fix_in_place);
  }
}

TEST(ServiceCliTest, LintFlagsRejectedOutsideLint) {
  auto result = ParseCommandLine({"prog.vcp", "list", "--format=json"});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("only valid for lint"),
            std::string::npos);
}

TEST(ServiceCliTest, RejectsBadCountsAndArity) {
  EXPECT_FALSE(ParseCommandLine({"p.vcp", "equiv", "V"}).ok());
  EXPECT_FALSE(ParseCommandLine({"p.vcp", "capacity", "V", "zero"}).ok());
  EXPECT_FALSE(ParseCommandLine({"p.vcp", "capacity", "V", "0"}).ok());
  EXPECT_FALSE(ParseCommandLine({"p.vcp", "list", "--threads=x"}).ok());
  EXPECT_FALSE(ParseCommandLine({"p.vcp", "frobnicate"}).ok());
  // load/stats are protocol-only methods, not CLI commands.
  EXPECT_FALSE(ParseCommandLine({"p.vcp", "load"}).ok());
  EXPECT_FALSE(ParseCommandLine({"p.vcp", "stats"}).ok());
}

TEST(ServiceCliTest, ThreadsUnsetKeepsWorkspaceDefault) {
  CliInvocation inv = Unwrap(ParseCommandLine({"p.vcp", "list"}));
  EXPECT_FALSE(inv.request.threads.has_value());
}

// --- Dispatcher: every kind round-trips ---------------------------------

class ServiceDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VIEWCAP_ASSERT_OK(workspace_.Load(kExampleProgram));
  }

  Response Run(Request request) { return dispatcher_.Handle(request); }

  Workspace workspace_;
  Dispatcher dispatcher_{&workspace_};
};

TEST_F(ServiceDispatchTest, ListExportAndStats) {
  Request list;
  list.kind = RequestKind::kList;
  Response r = Run(list);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("view V"), std::string::npos);
  EXPECT_NE(r.output.find("view W"), std::string::npos);

  Request exp;
  exp.kind = RequestKind::kExport;
  exp.view = "W";
  r = Run(exp);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("schema {"), std::string::npos);

  Request stats;
  stats.kind = RequestKind::kStats;
  r = Run(stats);
  EXPECT_TRUE(r.has_engine_stats);
  EXPECT_NE(r.output.find("Engine statistics"), std::string::npos);
}

TEST_F(ServiceDispatchTest, EquivalenceVerdictsAndExitCodes) {
  Request eq;
  eq.kind = RequestKind::kEquiv;
  eq.view = "V";
  eq.other_view = "W";
  Response r = Run(eq);
  ASSERT_TRUE(r.verdict.has_value());
  EXPECT_TRUE(*r.verdict);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("equivalent(V, W) = true"), std::string::npos);

  eq.view = "W";
  eq.other_view = "V";
  r = Run(eq);
  ASSERT_TRUE(r.verdict.has_value());
  EXPECT_TRUE(*r.verdict);
}

TEST_F(ServiceDispatchTest, AnswerableVerdictWitnessAndNegative) {
  Request member;
  member.kind = RequestKind::kAnswerable;
  member.view = "W";
  member.query = "pi{A,B}(r)";
  Response r = Run(member);
  ASSERT_TRUE(r.verdict.has_value());
  EXPECT_TRUE(*r.verdict);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_FALSE(r.witness.empty());

  member.query = "r";
  r = Run(member);
  ASSERT_TRUE(r.verdict.has_value());
  EXPECT_FALSE(*r.verdict);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("not answerable"), std::string::npos);
}

TEST_F(ServiceDispatchTest, MutatingCommandsRegisterResults) {
  Request nr;
  nr.kind = RequestKind::kNonredundant;
  nr.view = "W";
  EXPECT_EQ(Run(nr).exit_code, 0);

  Request simp;
  simp.kind = RequestKind::kSimplify;
  simp.view = "V";
  EXPECT_EQ(Run(simp).exit_code, 0);

  Request list;
  list.kind = RequestKind::kList;
  const std::string views = Run(list).output;
  EXPECT_NE(views.find("W_nr"), std::string::npos);
  EXPECT_NE(views.find("V_simplified"), std::string::npos);
}

TEST_F(ServiceDispatchTest, LatticeMinimizeCapacityEvalReport) {
  Request lattice;
  lattice.kind = RequestKind::kLattice;
  Response r = Run(lattice);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_FALSE(r.output.empty());

  Request minimize;
  minimize.kind = RequestKind::kMinimize;
  minimize.query = "pi{A,B}(r) * pi{A,B}(r * r)";
  r = Run(minimize);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("minimal"), std::string::npos);

  Request capacity;
  capacity.kind = RequestKind::kCapacity;
  capacity.view = "W";
  capacity.max_leaves = 2;
  r = Run(capacity);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("members derivable"), std::string::npos);

  Request eval;
  eval.kind = RequestKind::kEval;
  eval.view = "W";
  eval.query = "pi{A,C}(w1 * w2)";
  eval.data_text = kExampleData;
  r = Run(eval);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("surrogate:"), std::string::npos);

  Request report;
  report.kind = RequestKind::kReport;
  r = Run(report);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("viewcap analysis report"), std::string::npos);
}

TEST_F(ServiceDispatchTest, RejectedQueriesLeaveTheCatalogUnchanged) {
  // Request expressions are lowered against the catalog read-only, so a
  // query that projects a name no relation has is rejected without
  // interning it: otherwise each such request would grow a daemon's
  // catalog for good and shift the ids of names later loads intern.
  const auto attributes = [this] {
    return workspace_.WithShared(
        [](const Analyzer& a) { return a.catalog().num_attributes(); });
  };
  const std::size_t before = attributes();
  const std::string ill_typed =
      "projection list is not a subset of the child's TRS at 1:1";
  for (int i = 0; i < 4; ++i) {
    Request answerable;
    answerable.kind = RequestKind::kAnswerable;
    answerable.view = "W";
    answerable.query = "pi{Zz" + std::to_string(i) + "}(r)";
    Response r = Run(answerable);
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(r.status.code(), StatusCode::kIllFormed);
    EXPECT_EQ(r.status.message(), ill_typed);
  }
  Request minimize;
  minimize.kind = RequestKind::kMinimize;
  minimize.query = "pi{Qq}(r)";
  Response r = Run(minimize);
  EXPECT_EQ(r.status.code(), StatusCode::kIllFormed);
  EXPECT_EQ(r.status.message(), ill_typed);

  Request eval;
  eval.kind = RequestKind::kEval;
  eval.view = "W";
  eval.query = "pi{Ee}(w1)";
  eval.data_text = kExampleData;
  r = Run(eval);
  EXPECT_EQ(r.status.code(), StatusCode::kIllFormed);
  EXPECT_EQ(r.status.message(), ill_typed);

  EXPECT_EQ(attributes(), before);
}

TEST_F(ServiceDispatchTest, ComposeReportsWellFormednessErrors) {
  // Program loading flattens views-of-views to base level (Lemma 1.4.1),
  // so a text-loaded outer is already over the base schema and Compose
  // correctly rejects it; unknown names report NotFound. Both surface
  // through the service with the CLI error contract.
  VIEWCAP_ASSERT_OK(workspace_.Load("view Outer { o := w1 * w2; }"));
  Request compose;
  compose.kind = RequestKind::kCompose;
  compose.view = "W";
  compose.other_view = "Outer";
  Response r = Run(compose);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.status.code(), StatusCode::kIllFormed);

  compose.other_view = "Nope";
  r = Run(compose);
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
}

TEST_F(ServiceDispatchTest, ErrorsKeepCliContract) {
  Request exp;
  exp.kind = RequestKind::kExport;
  exp.view = "Nope";
  Response r = Run(exp);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
}

TEST_F(ServiceDispatchTest, EngineStatsAppendMatchesLegacyShape) {
  Request eq;
  eq.kind = RequestKind::kEquiv;
  eq.view = "V";
  eq.other_view = "W";
  eq.engine_stats = true;
  Response r = Run(eq);
  EXPECT_TRUE(r.has_engine_stats);
  // Appended after the multi-line equiv report, separated by the legacy
  // "\n" (the report itself continues past the "= true" verdict line).
  EXPECT_NE(r.output.find("equivalent(V, W) = true"), std::string::npos);
  EXPECT_NE(r.output.find("\n\n## Engine statistics"), std::string::npos);
  EXPECT_GT(r.engine_stats.interned_classes, 0u);
}

TEST_F(ServiceDispatchTest, LintThroughDispatcher) {
  Request lint;
  lint.kind = RequestKind::kLint;
  lint.program_path = "demo.vcp";
  lint.program_text =
      "schema { r(A, B); }\n"
      "view Bad { b := pi{A,A}(q); }\n";
  Response r = Run(lint);
  EXPECT_EQ(r.exit_code, 4);  // Undefined relation 'q' is an error.
  EXPECT_GT(r.lint_errors, 0u);
  EXPECT_NE(r.output.find("demo.vcp:"), std::string::npos);

  lint.lint.fix_dry_run = true;
  lint.lint.fix = true;
  r = Run(lint);
  // The dry run prints the fixed program and reports the fix tally.
  EXPECT_NE(r.output.find("schema"), std::string::npos);
  EXPECT_NE(r.note.find("dry run"), std::string::npos);
}

TEST_F(ServiceDispatchTest, PerRequestThreadsKeepVerdictsIdentical) {
  std::vector<Response> runs;
  for (std::size_t threads : {1u, 2u, 8u}) {
    Request eq;
    eq.kind = RequestKind::kEquiv;
    eq.view = "V";
    eq.other_view = "W";
    eq.threads = threads;
    runs.push_back(Run(eq));
  }
  for (const Response& r : runs) {
    EXPECT_EQ(r.output, runs.front().output);
    EXPECT_EQ(r.exit_code, runs.front().exit_code);
  }
}

// --- Protocol round trip ------------------------------------------------

TEST(ServiceProtocolTest, EveryKindSurvivesJsonRoundTrip) {
  std::vector<Request> requests;
  {
    Request r;
    r.kind = RequestKind::kLoad;
    r.program_text = kExampleProgram;
    requests.push_back(r);
  }
  for (RequestKind kind : {RequestKind::kList, RequestKind::kLattice,
                           RequestKind::kReport, RequestKind::kStats}) {
    Request r;
    r.kind = kind;
    requests.push_back(r);
  }
  for (RequestKind kind :
       {RequestKind::kExport, RequestKind::kNonredundant,
        RequestKind::kSimplify}) {
    Request r;
    r.kind = kind;
    r.view = "W";
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kEquiv;
    r.view = "V";
    r.other_view = "W";
    r.threads = 2;
    requests.push_back(r);
    r.kind = RequestKind::kCompose;
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kAnswerable;
    r.view = "W";
    r.query = "pi{A,B}(r)";
    r.engine_stats = true;
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kMinimize;
    r.query = "pi{A,B}(r * r)";
    r.max_candidates = 1000;
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kCapacity;
    r.view = "W";
    r.max_leaves = 3;
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kEval;
    r.view = "W";
    r.query = "w1";
    r.data_text = kExampleData;
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kLint;
    r.program_text = kExampleProgram;
    r.program_path = "x.vcp";
    r.lint.format = LintFormat::kSarif;
    r.lint.semantic = false;
    r.lint.fix = true;
    r.lint.have_baseline = true;
    r.lint.baseline_text = "# baseline";
    r.lint.want_baseline = true;
    r.lint.max_semantic_definitions = 5;
    requests.push_back(r);
  }

  for (const Request& original : requests) {
    const std::string wire = WriteJson(RequestToJson(original));
    JsonValue msg = Unwrap(ParseJson(wire));
    Request back = Unwrap(RequestFromJson(msg.Find("method")->AsString(),
                                          msg.Find("params")));
    EXPECT_EQ(back.kind, original.kind) << wire;
    EXPECT_EQ(back.program_text, original.program_text);
    EXPECT_EQ(back.program_path, original.program_path);
    EXPECT_EQ(back.view, original.view);
    EXPECT_EQ(back.other_view, original.other_view);
    EXPECT_EQ(back.query, original.query);
    EXPECT_EQ(back.data_text, original.data_text);
    EXPECT_EQ(back.max_leaves, original.max_leaves);
    EXPECT_EQ(back.threads, original.threads);
    EXPECT_EQ(back.max_candidates, original.max_candidates);
    EXPECT_EQ(back.engine_stats, original.engine_stats);
    EXPECT_EQ(back.lint.format, original.lint.format);
    EXPECT_EQ(back.lint.semantic, original.lint.semantic);
    EXPECT_EQ(back.lint.fix, original.lint.fix);
    EXPECT_EQ(back.lint.fix_dry_run, original.lint.fix_dry_run);
    EXPECT_EQ(back.lint.baseline_text, original.lint.baseline_text);
    EXPECT_EQ(back.lint.have_baseline, original.lint.have_baseline);
    EXPECT_EQ(back.lint.want_baseline, original.lint.want_baseline);
    EXPECT_EQ(back.lint.max_semantic_definitions,
              original.lint.max_semantic_definitions);
  }
}

TEST(ServiceProtocolTest, StatsJsonCountsMembershipRoutes) {
  EngineStats stats;
  stats.membership = {4, 2, 1};
  const std::string json = WriteJson(EngineStatsToJson(stats));
  EXPECT_NE(json.find("\"membership\":{\"canonical_witness\":4,"
                      "\"refutation\":2,\"enumeration\":1}"),
            std::string::npos)
      << json;
}

TEST(ServiceProtocolTest, StatsJsonCarriesInternRunCounts) {
  EngineStats stats;
  stats.reduce_runs = 7;
  stats.canonical_key_runs = 5;
  const std::string json = WriteJson(EngineStatsToJson(stats));
  EXPECT_NE(json.find("\"reduce_runs\":7,\"canonical_key_runs\":5"),
            std::string::npos)
      << json;
  // Neither kernel has a memo, so neither has a cache row.
  EXPECT_EQ(json.find("\"reduce\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"canonical_key\":"), std::string::npos) << json;
}

TEST(ServiceProtocolTest, MethodAliasesResolve) {
  JsonValue params = Unwrap(ParseJson(R"js({"view":"W","query":"r"})js"));
  EXPECT_EQ(Unwrap(RequestFromJson("membership", &params)).kind,
            RequestKind::kAnswerable);
  EXPECT_EQ(Unwrap(RequestFromJson("analyze", nullptr)).kind,
            RequestKind::kReport);
  EXPECT_FALSE(RequestFromJson("frobnicate", nullptr).ok());
  // Required params are enforced.
  EXPECT_FALSE(RequestFromJson("equiv", nullptr).ok());
  EXPECT_FALSE(RequestFromJson("answerable", nullptr).ok());
}

TEST(ServiceProtocolTest, SessionServesRequestsAndShutdown) {
  Workspace workspace;
  Dispatcher dispatcher(&workspace);
  ServerStats stats;

  std::ostringstream request_lines;
  {
    Request load;
    load.kind = RequestKind::kLoad;
    load.program_text = kExampleProgram;
    JsonValue msg = RequestToJson(load);
    msg.Set("id", JsonValue::Number(1));
    request_lines << WriteJson(msg) << "\n";
  }
  request_lines << "\n";  // Blank lines are skipped.
  request_lines
      << R"({"id":2,"method":"equiv","params":{"left":"V","right":"W"}})"
      << "\n";
  request_lines << R"({"id":3,"method":"ping"})" << "\n";
  request_lines << R"(this is not json)" << "\n";
  request_lines << R"({"id":4,"method":"stats"})" << "\n";
  request_lines << R"({"id":5,"method":"shutdown"})" << "\n";
  request_lines << R"({"id":6,"method":"list"})" << "\n";  // After shutdown.

  std::istringstream in(request_lines.str());
  std::ostringstream out;
  const bool shutdown = ServeSession(dispatcher, &stats, in, out);
  EXPECT_TRUE(shutdown);

  std::vector<std::string> replies;
  std::istringstream reply_stream(out.str());
  for (std::string line; std::getline(reply_stream, line);) {
    replies.push_back(line);
  }
  ASSERT_EQ(replies.size(), 6u);  // Request 6 was never served.
  EXPECT_NE(replies[0].find("\"id\":1"), std::string::npos);
  EXPECT_NE(replies[1].find("\"verdict\":true"), std::string::npos);
  EXPECT_NE(replies[1].find("equivalent(V, W) = true"), std::string::npos);
  EXPECT_NE(replies[2].find("\"result\":{\"ok\":true}"), std::string::npos);
  EXPECT_NE(replies[3].find("\"error\""), std::string::npos);
  EXPECT_NE(replies[4].find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(replies[4].find("\"engine_stats\""), std::string::npos);
  EXPECT_NE(replies[5].find("\"shutting_down\":true"), std::string::npos);
  EXPECT_EQ(stats.requests.load(), 6u);
  EXPECT_EQ(stats.sessions.load(), 1u);
}

TEST(ServiceProtocolTest, SessionAnswersOverlongLineAndContinues) {
  Workspace workspace;
  Dispatcher dispatcher(&workspace);
  ServerStats stats;
  // A line of exactly the limit is served; one byte more is refused, and
  // the session goes on with the next line.
  std::string at_limit = R"({"id":1,"method":"ping","pad":")";
  at_limit += std::string(kMaxRequestLineBytes - at_limit.size() - 2, 'x');
  at_limit += "\"}";
  ASSERT_EQ(at_limit.size(), kMaxRequestLineBytes);
  std::istringstream in(at_limit + "\n" +
                        std::string(kMaxRequestLineBytes + 1, 'x') + "\n" +
                        R"({"id":3,"method":"ping"})" + "\n");
  std::ostringstream out;
  EXPECT_FALSE(ServeSession(dispatcher, &stats, in, out));
  EXPECT_EQ(out.str(),
            "{\"id\":1,\"result\":{\"ok\":true}}\n"
            "{\"id\":null,\"error\":{\"code\":\"InvalidArgument\","
            "\"message\":\"request line longer than 1048576 bytes\"}}\n"
            "{\"id\":3,\"result\":{\"ok\":true}}\n");
  EXPECT_EQ(stats.requests.load(), 3u);
}

// --- CLI vs protocol differential ---------------------------------------
//
// The same command dispatched as a one-shot (fresh Workspace, like
// viewcap_cli) and through a persistent protocol session (like viewcapd)
// must produce byte-identical output and exit codes. tools/
// diff_cli_daemon.py repeats this at the binary level over
// examples/programs/*.vcp.
//
// Simplify's surrogate relation names are seeded from the input view's
// fingerprint (not a catalog-global counter), so even the minted names
// match byte for byte between a cold one-shot and a warm session that
// already did unrelated work.
TEST(ServiceDifferentialTest, OneShotAndSessionAgreeByteForByte) {
  struct Case {
    const char* method;
    const char* params;
  };
  // Mutating commands (they register result views in the warm workspace)
  // come last, so every earlier command sees identical view sets in the
  // cold and warm workspaces.
  const std::vector<Case> cases = {
      {"list", "{}"},
      {"equiv", R"({"left":"V","right":"W"})"},
      {"answerable", R"js({"view":"W","query":"pi{A,B}(r)"})js"},
      {"answerable", R"({"view":"W","query":"r"})"},
      {"lattice", "{}"},
      {"minimize", R"js({"query":"pi{A,B}(r) * pi{A,B}(r * r)"})js"},
      {"export", R"({"view":"W"})"},
      {"capacity", R"({"view":"W","max_leaves":2})"},
      {"report", "{}"},
      {"nonredundant", R"({"view":"W"})"},
      {"simplify", R"({"view":"V"})"},
  };

  // Persistent session: one warm workspace serves every case in order.
  Workspace warm;
  Dispatcher warm_dispatcher(&warm);
  VIEWCAP_ASSERT_OK(warm.Load(kExampleProgram));

  for (const Case& c : cases) {
    JsonValue params = Unwrap(ParseJson(c.params));
    Request request = Unwrap(RequestFromJson(c.method, &params));

    // One-shot: fresh workspace per command, exactly like viewcap_cli.
    Workspace cold;
    Dispatcher cold_dispatcher(&cold);
    VIEWCAP_ASSERT_OK(cold.Load(kExampleProgram));
    Response one_shot = cold_dispatcher.Handle(request);
    Response served = warm_dispatcher.Handle(request);

    EXPECT_EQ(one_shot.output, served.output)
        << c.method << " " << c.params;
    EXPECT_EQ(one_shot.exit_code, served.exit_code)
        << c.method << " " << c.params;
    EXPECT_EQ(one_shot.verdict, served.verdict)
        << c.method << " " << c.params;
    EXPECT_EQ(one_shot.witness, served.witness)
        << c.method << " " << c.params;
  }
}

}  // namespace
}  // namespace viewcap
