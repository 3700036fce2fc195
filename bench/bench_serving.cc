// B10: the serving layer — what viewcapd exists to amortize.
//
// Every series drives the same Dispatcher the CLI and the daemon share.
// The Cold variants rebuild the Workspace (catalog + engine) and reload
// the program every iteration, i.e. one-shot `viewcap_cli` semantics;
// the Warm variants reuse one long-lived Workspace, i.e. daemon
// semantics, where repeated questions hit the engine's verdict caches.
// The cold/warm ratio per chain length is the figure that justifies the
// daemon: 6-7x on repeated membership at chain lengths 2-5 (4-core Xeon
// VM, GCC 12.2, RelWithDebInfo).
//
// BM_ServingProtocolLine measures the daemon's full per-request overhead
// on a warm engine — JSON parse, dispatch, JSON serialize — i.e. what a
// client actually pays per line once the engine is hot.
#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "service/dispatcher.h"
#include "service/protocol.h"

namespace viewcap {
namespace bench {
namespace {

/// The chain family as program text: L binary links r1(A0,A1) ...
/// rL(A{L-1},AL) and the link view publishing each link verbatim.
std::string ChainProgram(std::size_t links) {
  std::string schema = "schema { ";
  std::string view = "view Links { ";
  for (std::size_t i = 1; i <= links; ++i) {
    schema += StrCat("r", i, "(A", i - 1, ", A", i, "); ");
    view += StrCat("lk", i, " := r", i, "; ");
  }
  return StrCat(schema, "}\n", view, "}\n");
}

/// The endpoint projection of the full chain join — answerable from the
/// link view by joining every link back together.
std::string EndpointQuery(std::size_t links) {
  std::string join = "r1";
  for (std::size_t i = 2; i <= links; ++i) join += StrCat(" * r", i);
  return StrCat("pi{A0,A", links, "}(", join, ")");
}

Request MembershipRequest(std::size_t links) {
  Request request;
  request.kind = RequestKind::kAnswerable;
  request.view = "Links";
  request.query = EndpointQuery(links);
  return request;
}

/// One-shot serving: a fresh Workspace per request (cold catalog, cold
/// engine, program reload) — what every `viewcap_cli` invocation pays
/// before it can even start searching.
void BM_ServingMembershipCold(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  const std::string program = ChainProgram(links);
  const Request request = MembershipRequest(links);
  for (auto _ : state) {
    Workspace workspace;
    if (!workspace.Load(program).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    Dispatcher dispatcher(&workspace);
    Response response = dispatcher.Handle(request);
    if (response.verdict != true) state.SkipWithError("expected member");
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServingMembershipCold)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

/// Daemon serving: one warm Workspace answers every request. After the
/// first iteration the verdict is a cache hit; the cold/warm ratio at
/// each chain length is the daemon's amortization win.
void BM_ServingMembershipWarm(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  Workspace workspace;
  if (!workspace.Load(ChainProgram(links)).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  Dispatcher dispatcher(&workspace);
  const Request request = MembershipRequest(links);
  for (auto _ : state) {
    Response response = dispatcher.Handle(request);
    if (response.verdict != true) state.SkipWithError("expected member");
    benchmark::DoNotOptimize(response);
  }
  state.counters["verdict_hits"] = static_cast<double>(
      workspace.EngineStatsSnapshot().verdict.hits());
}
BENCHMARK(BM_ServingMembershipWarm)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

// The Example 3.1.5 equivalence pair, cold vs warm: the dominance checks
// both directions of Cap-containment, so the warm engine's dominance and
// verdict caches carry the whole answer.
constexpr const char* kEquivProgram =
    "schema { r(A, B, C); }\n"
    "view V { v := pi{A,B}(r) * pi{B,C}(r); }\n"
    "view W { w1 := pi{A,B}(r); w2 := pi{B,C}(r); }\n";

Request EquivRequest() {
  Request request;
  request.kind = RequestKind::kEquiv;
  request.view = "V";
  request.other_view = "W";
  return request;
}

void BM_ServingEquivalenceCold(benchmark::State& state) {
  const Request request = EquivRequest();
  for (auto _ : state) {
    Workspace workspace;
    if (!workspace.Load(kEquivProgram).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    Dispatcher dispatcher(&workspace);
    Response response = dispatcher.Handle(request);
    if (response.verdict != true) state.SkipWithError("expected equivalent");
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServingEquivalenceCold)->Unit(benchmark::kMillisecond);

void BM_ServingEquivalenceWarm(benchmark::State& state) {
  Workspace workspace;
  if (!workspace.Load(kEquivProgram).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  Dispatcher dispatcher(&workspace);
  const Request request = EquivRequest();
  for (auto _ : state) {
    Response response = dispatcher.Handle(request);
    if (response.verdict != true) state.SkipWithError("expected equivalent");
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServingEquivalenceWarm)->Unit(benchmark::kMillisecond);

/// Full protocol round trip per request on a warm engine: what one
/// daemon request line costs end to end (parse + dispatch + serialize).
void BM_ServingProtocolLine(benchmark::State& state) {
  const std::size_t links = 3;
  Workspace workspace;
  if (!workspace.Load(ChainProgram(links)).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  Dispatcher dispatcher(&workspace);
  ServerStats stats;
  JsonValue msg = RequestToJson(MembershipRequest(links));
  msg.Set("id", JsonValue::Number(1));
  const std::string line = WriteJson(msg);
  for (auto _ : state) {
    LineOutcome outcome = HandleRequestLine(dispatcher, &stats, line);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ServingProtocolLine)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace viewcap
