// B7: simplification to the Section 4 normal form — cost vs. input shape,
// and the sizes of the normal forms produced (Theorem 4.2.3's maximality
// in action).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "views/simplify.h"

namespace viewcap {
namespace bench {
namespace {

// The Example 3.1.5 input: one joined definition that splits in two.
void BM_SimplifyExample315(benchmark::State& state) {
  Catalog catalog;
  AttrSet u = catalog.MakeScheme({"A", "B", "C"});
  RelId r = catalog.AddRelation("r", u).value();
  DbSchema base(catalog, {r});
  ExprPtr pab = Expr::MustProject(catalog.MakeScheme({"A", "B"}),
                                  Expr::Rel(catalog, r));
  ExprPtr pbc = Expr::MustProject(catalog.MakeScheme({"B", "C"}),
                                  Expr::Rel(catalog, r));
  RelId l = catalog.MintRelation("l", u);
  View v = View::Create(&catalog, base, {{l, Expr::MustJoin2(pab, pbc)}},
                        "V")
               .value();
  std::size_t out = 0;
  for (auto _ : state) {
    Engine engine(&catalog);
    SimplifyOutcome outcome = Simplify(engine, &catalog, v).value();
    out = outcome.view.size();
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["defs_out"] = static_cast<double>(out);
}
BENCHMARK(BM_SimplifyExample315)->Unit(benchmark::kMillisecond);

// The Section 4.1 reconstruction (see EXPERIMENTS.md): S decomposes
// traditionally, T only in S's presence; normal form has 3 queries.
void BM_SimplifySection41(benchmark::State& state) {
  Catalog catalog;
  RelId e = catalog.AddRelation("e", catalog.MakeScheme({"A", "B"})).value();
  RelId f = catalog.AddRelation("f", catalog.MakeScheme({"B", "C"})).value();
  RelId g = catalog.AddRelation("g", catalog.MakeScheme({"A"})).value();
  DbSchema base(catalog, {e, f, g});
  ExprPtr ef = Expr::MustJoin2(Expr::Rel(catalog, e), Expr::Rel(catalog, f));
  ExprPtr t = Expr::MustJoin2(
      Expr::MustProject(catalog.MakeScheme({"A", "C"}), ef),
      Expr::Rel(catalog, g));
  RelId hs = catalog.MintRelation("hS", ef->trs());
  RelId ht = catalog.MintRelation("hT", t->trs());
  View view =
      View::Create(&catalog, base, {{hs, ef}, {ht, t}}, "VST").value();
  std::size_t out = 0;
  for (auto _ : state) {
    Engine engine(&catalog);
    SimplifyOutcome outcome = Simplify(engine, &catalog, view).value();
    out = outcome.view.size();
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["defs_out"] = static_cast<double>(out);
}
BENCHMARK(BM_SimplifySection41)->Unit(benchmark::kMillisecond);

// Chain join views: the TRS (and with it the projection lattice the
// simplicity tests wade through) grows with the chain.
void BM_SimplifyChainJoin(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View view = MakeJoinView(*schema, "jn");
  std::size_t out = 0;
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    SimplifyOutcome outcome =
        Simplify(engine, &schema->catalog, view).value();
    out = outcome.view.size();
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["defs_out"] = static_cast<double>(out);
}
BENCHMARK(BM_SimplifyChainJoin)
    ->DenseRange(2, 3)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

// IsSimplifiedView on an already-normal input: the verification cost.
void BM_VerifySimplified(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  View view = MakeLinkView(*schema, "lk");
  for (auto _ : state) {
    Engine engine(&schema->catalog);
    bool simplified =
        IsSimplifiedView(engine, &schema->catalog, view).value();
    if (!simplified) state.SkipWithError("expected simplified");
    benchmark::DoNotOptimize(simplified);
  }
}
BENCHMARK(BM_VerifySimplified)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace viewcap
