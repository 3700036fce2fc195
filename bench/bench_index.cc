// B11: the persistent capacity index — offline build cost vs online
// lookup speed (see DESIGN.md, "Persistent capacity index").
//
// Workload: the gapped-chain family. The base is the L-link chain
// r1(A0,A1) ... rL(A(L-1),AL); view Full publishes the endpoint
// projection of the whole join, view Gappy publishes every link except
// the middle one. "Is Full's endpoint query answerable from Gappy?" is a
// negative membership verdict. Negatives used to be the expensive case,
// an exhaustive closure search (about 0.4 s at L=4 on a 4-core Xeon VM);
// the canonical-rewriting refutation now proves this one without the
// search. The index build stores each view's definitions probed against
// every other view, and a fresh process then serves the same verdict out
// of the mmap'd file.
//
// The comparison is fresh-process against fresh-process:
// BM_IndexColdMembership reloads the program and recomputes the verdict
// from scratch (one-shot `viewcap_cli` semantics); BM_IndexedMembership
// reloads the program, attaches the prebuilt index (mmap + full
// validation) and serves the stored verdict. Both render bit-identical
// output; the cold/indexed ratio per chain length is the figure that
// would justify the build/query split. With the refutation it is about
// 0.9x at L=3 and 0.5x at L=4 (cold 0.11 and 0.14 ms, indexed 0.12 and
// 0.29 ms on a 4-core Xeon VM, GCC 12.2, RelWithDebInfo): the index no
// longer wins here.
//
// BM_IndexBuild is the offline half (saturation sweep + the exhaustive
// cross-view probes + serialization); BM_IndexAttach isolates the fixed
// open-and-validate cost every indexed process pays once.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "index/index_reader.h"
#include "index/index_writer.h"
#include "service/dispatcher.h"

namespace viewcap {
namespace bench {
namespace {

/// The endpoint projection of the full chain join.
std::string EndpointQuery(std::size_t links) {
  std::string join = "r1";
  for (std::size_t i = 2; i <= links; ++i) join += StrCat(" * r", i);
  return StrCat("pi{A0,A", links, "}(", join, ")");
}

/// The gapped-chain program: Full = the endpoint projection, Gappy = all
/// links except the middle one (so the endpoint is NOT answerable from
/// Gappy, but both views still share the full attribute universe).
std::string GappedChainProgram(std::size_t links) {
  std::string schema = "schema { ";
  for (std::size_t i = 1; i <= links; ++i) {
    schema += StrCat("r", i, "(A", i - 1, ", A", i, "); ");
  }
  const std::size_t gap = (links + 1) / 2;
  std::string gappy = "view Gappy { ";
  for (std::size_t i = 1; i <= links; ++i) {
    if (i == gap) continue;
    gappy += StrCat("lk", i, " := r", i, "; ");
  }
  return StrCat(schema, "}\nview Full { j := ", EndpointQuery(links),
                "; }\n", gappy, "}\n");
}

/// The expensive probe: a negative verdict, exhaustively searched live.
Request NegativeMembershipRequest(std::size_t links) {
  Request request;
  request.kind = RequestKind::kAnswerable;
  request.view = "Gappy";
  request.query = EndpointQuery(links);
  return request;
}

/// Index file for GappedChainProgram(links), built once per process and
/// shared by every iteration of the lookup benchmarks.
const std::string& PrebuiltIndex(std::size_t links) {
  static std::map<std::size_t, std::string>* paths =
      new std::map<std::size_t, std::string>();
  auto it = paths->find(links);
  if (it != paths->end()) return it->second;
  std::string path =
      (std::filesystem::temp_directory_path() /
       StrCat("bench_index_", links, ".vcidx"))
          .string();
  Analyzer analyzer;
  if (!analyzer.Load(GappedChainProgram(links)).ok() ||
      !BuildIndexFile(analyzer, path, IndexBuildOptions{}).ok()) {
    std::fprintf(stderr, "bench_index: prebuild failed for links=%zu\n",
                 links);
    std::abort();
  }
  return paths->emplace(links, std::move(path)).first->second;
}

/// Offline build from a cold analyzer: saturation sweep, the exhaustive
/// cross-view membership/dominance probes, serialization, publish.
void BM_IndexBuild(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  const std::string program = GappedChainProgram(links);
  const std::string path = (std::filesystem::temp_directory_path() /
                            "bench_index_build.vcidx")
                               .string();
  for (auto _ : state) {
    Analyzer analyzer;
    if (!analyzer.Load(program).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto stats = BuildIndexFile(analyzer, path, IndexBuildOptions{});
    if (!stats.ok()) {
      state.SkipWithError("build failed");
      break;
    }
    benchmark::DoNotOptimize(stats);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_IndexBuild)->DenseRange(3, 4)->Unit(benchmark::kMillisecond);

/// Fresh-process cold recompute: reload the program and decide the
/// negative endpoint membership live.
void BM_IndexColdMembership(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  const std::string program = GappedChainProgram(links);
  const Request request = NegativeMembershipRequest(links);
  for (auto _ : state) {
    Workspace workspace;
    if (!workspace.Load(program).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    Dispatcher dispatcher(&workspace);
    Response response = dispatcher.Handle(request);
    if (response.verdict != false) {
      state.SkipWithError("expected non-member");
    }
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_IndexColdMembership)
    ->DenseRange(3, 4)
    ->Unit(benchmark::kMillisecond);

/// Fresh-process indexed lookup: reload the program, attach the prebuilt
/// index (mmap + validation), and serve the same verdict from the file.
/// Bit-identical output to the cold run; the cold/indexed ratio is the
/// whole point of the build/query split.
void BM_IndexedMembership(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  const std::string program = GappedChainProgram(links);
  const std::string& path = PrebuiltIndex(links);
  const Request request = NegativeMembershipRequest(links);
  for (auto _ : state) {
    Workspace workspace;
    if (!workspace.Load(program).ok() ||
        !workspace.AttachIndex(path).ok()) {
      state.SkipWithError("load/attach failed");
      break;
    }
    Dispatcher dispatcher(&workspace);
    Response response = dispatcher.Handle(request);
    if (response.verdict != false) {
      state.SkipWithError("expected non-member");
    }
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_IndexedMembership)
    ->DenseRange(3, 4)
    ->Unit(benchmark::kMillisecond);

/// The fixed per-process cost of opening an index: mmap, header and
/// section checksums, eager class decode, set table build.
void BM_IndexAttach(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  const std::string program = GappedChainProgram(links);
  const std::string& path = PrebuiltIndex(links);
  for (auto _ : state) {
    Workspace workspace;
    if (!workspace.Load(program).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    if (!workspace.AttachIndex(path).ok()) {
      state.SkipWithError("attach failed");
      break;
    }
    benchmark::DoNotOptimize(workspace);
  }
}
BENCHMARK(BM_IndexAttach)->DenseRange(3, 4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace viewcap
