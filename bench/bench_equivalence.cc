// B5: view equivalence decision cost (Theorem 2.4.12) vs. view size.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "views/equivalence.h"

namespace viewcap {
namespace bench {
namespace {

// Equivalent pair: the link view against a re-declared copy of itself.
void BM_EquivalentViews(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View v = MakeLinkView(*schema, "lv");
  View w = MakeLinkView(*schema, "lw");
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    EquivalenceResult eq = AreEquivalent(engine, v, w).value();
    if (!eq.equivalent) state.SkipWithError("expected equivalent");
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_EquivalentViews)->DenseRange(2, 6)->Unit(benchmark::kMillisecond);

// The same question against a shared engine: the series above builds a
// fresh engine per iteration (cold), while here every iteration after
// the first is answered from the verdict cache — the repeated-analysis
// path the analyzer and linter run on.
void BM_EquivalentViewsWarmEngine(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View v = MakeLinkView(*schema, "lv");
  View w = MakeLinkView(*schema, "lw");
  Engine engine(&schema->catalog);
  for (auto _ : state) {
    EquivalenceResult eq = AreEquivalent(engine, v, w).value();
    if (!eq.equivalent) state.SkipWithError("expected equivalent");
    benchmark::DoNotOptimize(eq);
  }
  EngineStats stats = engine.StatsSnapshot();
  state.counters["verdict_hits"] = static_cast<double>(stats.verdict.hits());
}
BENCHMARK(BM_EquivalentViewsWarmEngine)
    ->DenseRange(2, 6)
    ->Unit(benchmark::kMillisecond);

// Inequivalent pair: link view strictly dominates the join view, so the
// join-view side of the test fails after an exhaustive search.
void BM_InequivalentViews(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View links_view = MakeLinkView(*schema, "lv");
  View join_view = MakeJoinView(*schema, "jv");
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    EquivalenceResult eq =
        AreEquivalent(engine, links_view, join_view).value();
    if (eq.equivalent) state.SkipWithError("expected inequivalent");
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_InequivalentViews)->DenseRange(2, 4)->Unit(benchmark::kMillisecond);

// Parallel series: the inequivalent pair (the exhaustive direction
// dominates the cost) across thread counts, cold engine per iteration
// (arg 0 = links, arg 1 = SearchLimits::threads).
void BM_InequivalentViewsParallel(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  SearchLimits limits;
  limits.threads = static_cast<std::size_t>(state.range(1));
  auto schema = MakeChain(links);
  View links_view = MakeLinkView(*schema, "lv");
  View join_view = MakeJoinView(*schema, "jv");
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    EquivalenceResult eq =
        AreEquivalent(engine, links_view, join_view, limits).value();
    if (eq.equivalent) state.SkipWithError("expected inequivalent");
    benchmark::DoNotOptimize(eq);
  }
  state.counters["threads"] = static_cast<double>(limits.threads);
}
BENCHMARK(BM_InequivalentViewsParallel)
    ->Args({3, 1})->Args({3, 2})->Args({3, 4})->Args({3, 8})
    ->Args({4, 1})->Args({4, 2})->Args({4, 4})->Args({4, 8})
    ->Unit(benchmark::kMillisecond);

// Warm variant: shared engine, so iterations after the first answer from
// the verdict cache — measures the memoized path's insensitivity to the
// thread knob (the knob is not part of the verdict key).
void BM_InequivalentViewsParallelWarmEngine(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  SearchLimits limits;
  limits.threads = static_cast<std::size_t>(state.range(1));
  auto schema = MakeChain(links);
  View links_view = MakeLinkView(*schema, "lv");
  View join_view = MakeJoinView(*schema, "jv");
  Engine engine(&schema->catalog);
  for (auto _ : state) {
    EquivalenceResult eq =
        AreEquivalent(engine, links_view, join_view, limits).value();
    if (eq.equivalent) state.SkipWithError("expected inequivalent");
    benchmark::DoNotOptimize(eq);
  }
  EngineStats stats = engine.StatsSnapshot();
  state.counters["verdict_hits"] = static_cast<double>(stats.verdict.hits());
  state.counters["threads"] = static_cast<double>(limits.threads);
}
BENCHMARK(BM_InequivalentViewsParallelWarmEngine)
    ->Args({3, 1})->Args({3, 2})->Args({3, 4})->Args({3, 8})
    ->Unit(benchmark::kMillisecond);

// One-sided dominance: the cheap direction (every join-view query is
// answerable from the links).
void BM_DominancePositive(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View links_view = MakeLinkView(*schema, "lv");
  View join_view = MakeJoinView(*schema, "jv");
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    DominanceResult dom = Dominates(engine, links_view, join_view).value();
    if (!dom.dominates) state.SkipWithError("expected dominance");
    benchmark::DoNotOptimize(dom);
  }
}
BENCHMARK(BM_DominancePositive)->DenseRange(2, 6)->Unit(benchmark::kMillisecond);

// The Example 3.1.5 pair (single-relation schema: the hardest tag regime,
// every row matches every row).
void BM_Example315(benchmark::State& state) {
  Catalog catalog;
  AttrSet u = catalog.MakeScheme({"A", "B", "C"});
  RelId r = catalog.AddRelation("r", u).value();
  DbSchema base(catalog, {r});
  ExprPtr pab = Expr::MustProject(catalog.MakeScheme({"A", "B"}),
                                  Expr::Rel(catalog, r));
  ExprPtr pbc = Expr::MustProject(catalog.MakeScheme({"B", "C"}),
                                  Expr::Rel(catalog, r));
  RelId l = catalog.MintRelation("l", catalog.MakeScheme({"A", "B", "C"}));
  RelId l1 = catalog.MintRelation("l1", pab->trs());
  RelId l2 = catalog.MintRelation("l2", pbc->trs());
  View v = View::Create(&catalog, base, {{l, Expr::MustJoin2(pab, pbc)}},
                        "V")
               .value();
  View w =
      View::Create(&catalog, base, {{l1, pab}, {l2, pbc}}, "W").value();
  for (auto _ : state) {
    Engine engine(&catalog);
    EquivalenceResult eq = AreEquivalent(engine, v, w).value();
    if (!eq.equivalent) state.SkipWithError("expected equivalent");
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_Example315)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace viewcap
