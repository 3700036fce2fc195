// B4: capacity-membership decision cost (Theorem 2.4.11 via Lemma 2.4.10)
// vs. chain length, for both member and non-member queries.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "views/capacity.h"

namespace viewcap {
namespace bench {
namespace {

// Positive: the endpoint projection of the full chain join IS answerable
// from the link view (joining all links and projecting).
void BM_MembershipPositive(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View view = MakeLinkView(*schema, "lk");
  AttrSet endpoints{schema->attrs.front(), schema->attrs.back()};
  ExprPtr query = Expr::MustProject(endpoints, ChainJoin(*schema));
  std::size_t tried = 0;
  for (auto _ : state) {
    // A fresh oracle (and engine) per iteration: this series measures the
    // cold search, not the verdict cache (see the WarmEngine variant).
    Engine engine(&schema->catalog);
    CapacityOracle oracle(&engine, view);
    MembershipResult m = oracle.Contains(query).value();
    if (!m.member) state.SkipWithError("expected member");
    tried = m.candidates_tried;
    benchmark::DoNotOptimize(m);
  }
  state.counters["candidates"] = static_cast<double>(tried);
}
BENCHMARK(BM_MembershipPositive)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

// The same positive query against a shared engine: after the first
// iteration every Contains is a verdict-cache hit, so this series tracks
// the memoized repeated-query path the views layer now runs on.
void BM_MembershipPositiveWarmEngine(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View view = MakeLinkView(*schema, "lk");
  Engine engine(&schema->catalog);
  CapacityOracle oracle(&engine, view);
  AttrSet endpoints{schema->attrs.front(), schema->attrs.back()};
  ExprPtr query = Expr::MustProject(endpoints, ChainJoin(*schema));
  for (auto _ : state) {
    MembershipResult m = oracle.Contains(query).value();
    if (!m.member) state.SkipWithError("expected member");
    benchmark::DoNotOptimize(m);
  }
  EngineStats stats = engine.StatsSnapshot();
  state.counters["verdict_hits"] = static_cast<double>(stats.verdict.hits());
}
BENCHMARK(BM_MembershipPositiveWarmEngine)
    ->DenseRange(2, 5)
    ->Unit(benchmark::kMillisecond);

// Negative: a raw link is NOT answerable from the join view (projections
// of the join are semijoined); the search must exhaust the space.
void BM_MembershipNegative(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View view = MakeJoinView(*schema, "jn");
  ExprPtr query = Expr::Rel(schema->catalog, schema->relations[0]);
  std::size_t tried = 0;
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    CapacityOracle oracle(&engine, view);
    MembershipResult m = oracle.Contains(query).value();
    if (m.member) state.SkipWithError("expected non-member");
    tried = m.candidates_tried;
    benchmark::DoNotOptimize(m);
  }
  state.counters["candidates"] = static_cast<double>(tried);
}
BENCHMARK(BM_MembershipNegative)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

// Budget sensitivity: the same positive query under growing extra-leaf
// slack (the Lemma 2.4.8 bound plus headroom) — cost of over-budgeting.
void BM_MembershipExtraLeaves(benchmark::State& state) {
  auto schema = MakeChain(3);
  SearchLimits limits;
  limits.extra_leaves = static_cast<std::size_t>(state.range(0));
  // A non-member, so the whole budgeted space is explored.
  ExprPtr query = Expr::Rel(schema->catalog, schema->relations[0]);
  View join_view = MakeJoinView(*schema, "jn");
  std::size_t tried = 0;
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    CapacityOracle join_oracle(&engine, QuerySet::FromView(join_view),
                               limits);
    MembershipResult m = join_oracle.Contains(query).value();
    tried = m.candidates_tried;
    benchmark::DoNotOptimize(m);
  }
  state.counters["candidates"] = static_cast<double>(tried);
}
BENCHMARK(BM_MembershipExtraLeaves)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// FindConstructions: collecting many witnesses (the Section 3 machinery's
// inner loop).
void BM_FindConstructions(benchmark::State& state) {
  auto schema = MakeChain(2);
  View view = MakeLinkView(*schema, "lk");
  Engine engine(&schema->catalog);
  CapacityOracle oracle(&engine, view);
  SymbolPool pool;
  Tableau query =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  const std::size_t want = static_cast<std::size_t>(state.range(0));
  std::size_t got = 0;
  for (auto _ : state) {
    auto constructions = oracle.FindConstructions(query, want).value();
    got = constructions.size();
    benchmark::DoNotOptimize(constructions);
  }
  state.counters["found"] = static_cast<double>(got);
}
BENCHMARK(BM_FindConstructions)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace viewcap
