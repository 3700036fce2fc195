// B6: redundancy elimination (Theorem 3.1.4) cost and shrinkage.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "views/redundancy.h"

namespace viewcap {
namespace bench {
namespace {

// View = links + the (redundant) full join; elimination drops the join.
void BM_MakeNonredundant(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  std::vector<std::pair<RelId, ExprPtr>> defs;
  for (RelId rel : schema->relations) {
    ExprPtr link = Expr::Rel(schema->catalog, rel);
    defs.push_back({schema->catalog.MintRelation("d", link->trs()), link});
  }
  ExprPtr join = ChainJoin(*schema);
  defs.push_back({schema->catalog.MintRelation("d", join->trs()), join});
  View view =
      View::Create(&schema->catalog, schema->base, std::move(defs), "R")
          .value();
  std::size_t kept = 0;
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    NonredundantViewResult result = MakeNonredundant(engine, view).value();
    kept = result.view.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["defs_in"] = static_cast<double>(view.size());
  state.counters["defs_out"] = static_cast<double>(kept);
}
BENCHMARK(BM_MakeNonredundant)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

// Already-nonredundant views: the elimination loop is pure verification.
void BM_VerifyNonredundant(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View view = MakeLinkView(*schema, "lk");
  QuerySet set = QuerySet::FromView(view);
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    bool nonredundant = IsNonredundantSet(engine, set).value();
    if (!nonredundant) state.SkipWithError("expected nonredundant");
    benchmark::DoNotOptimize(nonredundant);
  }
}
BENCHMARK(BM_VerifyNonredundant)->DenseRange(2, 6)->Unit(benchmark::kMillisecond);

// Parallel series: verification of an already-nonredundant view — every
// leave-one-out membership test runs to exhaustion, and with threads > 1
// they run concurrently (arg 0 = links, arg 1 = SearchLimits::threads).
// Cold: a fresh engine per iteration.
void BM_VerifyNonredundantParallel(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  SearchLimits limits;
  limits.threads = static_cast<std::size_t>(state.range(1));
  auto schema = MakeChain(links);
  View view = MakeLinkView(*schema, "lk");
  QuerySet set = QuerySet::FromView(view);
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    bool nonredundant = IsNonredundantSet(engine, set, limits).value();
    if (!nonredundant) state.SkipWithError("expected nonredundant");
    benchmark::DoNotOptimize(nonredundant);
  }
  state.counters["threads"] = static_cast<double>(limits.threads);
}
BENCHMARK(BM_VerifyNonredundantParallel)
    ->Args({4, 1})->Args({4, 2})->Args({4, 4})->Args({4, 8})
    ->Args({6, 1})->Args({6, 2})->Args({6, 4})->Args({6, 8})
    ->Unit(benchmark::kMillisecond);

// Warm variant: one shared engine, so repeat iterations hit the verdict
// cache and the series bounds the parallel path's bookkeeping overhead.
void BM_VerifyNonredundantParallelWarmEngine(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  SearchLimits limits;
  limits.threads = static_cast<std::size_t>(state.range(1));
  auto schema = MakeChain(links);
  View view = MakeLinkView(*schema, "lk");
  QuerySet set = QuerySet::FromView(view);
  Engine engine(&schema->catalog);
  for (auto _ : state) {
    bool nonredundant =
        IsNonredundantSet(engine, set, limits, nullptr).value();
    if (!nonredundant) state.SkipWithError("expected nonredundant");
    benchmark::DoNotOptimize(nonredundant);
  }
  EngineStats stats = engine.StatsSnapshot();
  state.counters["verdict_hits"] = static_cast<double>(stats.verdict.hits());
  state.counters["threads"] = static_cast<double>(limits.threads);
}
BENCHMARK(BM_VerifyNonredundantParallelWarmEngine)
    ->Args({4, 1})->Args({4, 2})->Args({4, 4})->Args({4, 8})
    ->Unit(benchmark::kMillisecond);

// The Lemma 3.1.6 size bound is pure template arithmetic: cheap.
void BM_SizeBound(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View view = MakeLinkView(*schema, "lk");
  QuerySet set = QuerySet::FromView(view);
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    std::size_t bound = NonredundantSizeBound(engine, set);
    benchmark::DoNotOptimize(bound);
  }
}
BENCHMARK(BM_SizeBound)->DenseRange(2, 10, 2);

}  // namespace
}  // namespace bench
}  // namespace viewcap
