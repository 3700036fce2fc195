// B1: homomorphism search cost (Proposition 2.4.1) vs. template size.
//
// Workloads: chain-join templates. "Hit" maps a k-row chain into a 2k-row
// template containing two interleaved copies; "Miss" maps into a template
// whose last link was severed, forcing the search to exhaust candidates.
//
// The primary entry points (BM_HomomorphismHit/Miss, BM_EquivalenceCheck)
// now run on the flat SoA kernel; the *Legacy twins pin the retired
// pointer-walking HomSearch for a direct series-vs-series comparison, and
// the Kernel series isolate the engine's steady state (templates lowered
// once, scratch reused across calls).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "tableau/build.h"
#include "tableau/hom_kernel.h"
#include "tableau/homomorphism.h"
#include "tableau/soa.h"

namespace viewcap {
namespace bench {
namespace {

void BM_HomomorphismHit(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  SymbolPool pool;
  Tableau from =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  // Two disjoint copies of the chain: every row has 2 candidates.
  Tableau to =
      JoinTableaux(schema->catalog, from,
                   BuildTableau(schema->catalog, schema->universe,
                                *ChainJoin(*schema), pool)
                       .value(),
                   pool)
          .value();
  for (auto _ : state) {
    auto hom = FindHomomorphism(schema->catalog, from, to);
    benchmark::DoNotOptimize(hom);
  }
  state.counters["rows_from"] = static_cast<double>(from.size());
  state.counters["rows_to"] = static_cast<double>(to.size());
}
BENCHMARK(BM_HomomorphismHit)->DenseRange(2, 12, 2);

void BM_HomomorphismMiss(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  SymbolPool pool;
  Tableau from =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  // Target: the chain with its last link projected away — 0_{Xn} is gone,
  // so no homomorphism exists.
  AttrSet kept = from.Trs();
  kept = kept.Difference(AttrSet{schema->attrs.back()});
  Tableau to =
      ProjectTableau(schema->catalog, from, kept, pool).value();
  for (auto _ : state) {
    bool hom = HasHomomorphism(schema->catalog, from, to);
    benchmark::DoNotOptimize(hom);
  }
}
BENCHMARK(BM_HomomorphismMiss)->DenseRange(2, 12, 2);

void BM_EquivalenceCheck(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  SymbolPool pool;
  Tableau a =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  // An equivalent but syntactically bloated realization: the join with a
  // redundant projected copy.
  AttrSet half{schema->attrs[0], schema->attrs[1]};
  Tableau extra = ProjectTableau(schema->catalog, a, half, pool).value();
  Tableau b = JoinTableaux(schema->catalog, a, extra, pool).value();
  for (auto _ : state) {
    bool eq = EquivalentTableaux(schema->catalog, a, b);
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_EquivalenceCheck)->DenseRange(2, 12, 2);

// --- Legacy oracle twins: the same workloads on the retired pointer-
// walking HomSearch, for the SoA-vs-legacy series. ---

void BM_HomomorphismHitLegacy(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  SymbolPool pool;
  Tableau from =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  Tableau to =
      JoinTableaux(schema->catalog, from,
                   BuildTableau(schema->catalog, schema->universe,
                                *ChainJoin(*schema), pool)
                       .value(),
                   pool)
          .value();
  for (auto _ : state) {
    auto hom = legacy::FindHomomorphism(schema->catalog, from, to);
    benchmark::DoNotOptimize(hom);
  }
}
BENCHMARK(BM_HomomorphismHitLegacy)->DenseRange(2, 12, 2);

void BM_HomomorphismMissLegacy(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  SymbolPool pool;
  Tableau from =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  AttrSet kept = from.Trs();
  kept = kept.Difference(AttrSet{schema->attrs.back()});
  Tableau to = ProjectTableau(schema->catalog, from, kept, pool).value();
  for (auto _ : state) {
    bool hom = legacy::HasHomomorphism(schema->catalog, from, to);
    benchmark::DoNotOptimize(hom);
  }
}
BENCHMARK(BM_HomomorphismMissLegacy)->DenseRange(2, 12, 2);

void BM_EquivalenceCheckLegacy(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  SymbolPool pool;
  Tableau a =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  AttrSet half{schema->attrs[0], schema->attrs[1]};
  Tableau extra = ProjectTableau(schema->catalog, a, half, pool).value();
  Tableau b = JoinTableaux(schema->catalog, a, extra, pool).value();
  for (auto _ : state) {
    bool eq = legacy::EquivalentTableaux(schema->catalog, a, b);
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_EquivalenceCheckLegacy)->DenseRange(2, 12, 2);

// --- Kernel steady state: what an engine-resident search costs once the
// SoA forms are cached and the scratch arena is warm. ---

void BM_SoaLowering(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  SymbolPool pool;
  Tableau from =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  for (auto _ : state) {
    SoaTemplate soa = SoaTemplate::Lower(from);
    benchmark::DoNotOptimize(soa);
  }
}
BENCHMARK(BM_SoaLowering)->DenseRange(2, 12, 2);

void BM_HomKernelHitWarm(benchmark::State& state) {
  const std::size_t links = static_cast<std::size_t>(state.range(0));
  auto schema = MakeChain(links);
  SymbolPool pool;
  Tableau from =
      BuildTableau(schema->catalog, schema->universe, *ChainJoin(*schema),
                   pool)
          .value();
  Tableau to =
      JoinTableaux(schema->catalog, from,
                   BuildTableau(schema->catalog, schema->universe,
                                *ChainJoin(*schema), pool)
                       .value(),
                   pool)
          .value();
  const SoaTemplate from_soa = SoaTemplate::Lower(from);
  const SoaTemplate to_soa = SoaTemplate::Lower(to);
  HomScratch scratch;
  for (auto _ : state) {
    bool found =
        SoaSearch(from_soa, to_soa, HomMode::kHomomorphism, scratch, nullptr);
    benchmark::DoNotOptimize(found);
  }
}
BENCHMARK(BM_HomKernelHitWarm)->DenseRange(2, 12, 2);

// --- Candidate-filter-bound series.
//
// Target: a two-copy chain join plus `range(0)` "broken chain" decoy
// sets. Each set joins in, per chain relation r_i, one isolated r_i row
// projected onto its first attribute — the decoy row's interior symbol
// occurs in only that one row, so its occurrence signature is strictly
// shorter than the source chain row's shared-symbol signature and the
// row dies in the filter's signature-length check. (Row-embedding mode
// skips the distinguished-cover check, so signature-length kills are
// what makes this shape filter-bound.) See DESIGN.md, "Candidate
// filter".

struct FilterWorkload {
  std::unique_ptr<ChainSchema> schema;
  SymbolPool pool;
  SoaTemplate from;
  SoaTemplate to;
};

FilterWorkload MakeFilterWorkload(std::size_t links, std::size_t decoys) {
  FilterWorkload w;
  w.schema = MakeChain(links);
  Tableau from = BuildTableau(w.schema->catalog, w.schema->universe,
                              *ChainJoin(*w.schema), w.pool)
                     .value();
  Tableau to =
      JoinTableaux(w.schema->catalog, from,
                   BuildTableau(w.schema->catalog, w.schema->universe,
                                *ChainJoin(*w.schema), w.pool)
                       .value(),
                   w.pool)
          .value();
  for (std::size_t copy = 0; copy < decoys; ++copy) {
    for (std::size_t i = 0; i < w.schema->relations.size(); ++i) {
      Tableau link =
          BuildTableau(w.schema->catalog, w.schema->universe,
                       *Expr::Rel(w.schema->catalog, w.schema->relations[i]),
                       w.pool)
              .value();
      Tableau decoy = ProjectTableau(w.schema->catalog, link,
                                     AttrSet{w.schema->attrs[i]}, w.pool)
                          .value();
      to = JoinTableaux(w.schema->catalog, to, decoy, w.pool).value();
    }
  }
  w.from = SoaTemplate::Lower(from);
  w.to = SoaTemplate::Lower(to);
  return w;
}

void BM_FilterCandidates(benchmark::State& state) {
  const FilterWorkload w =
      MakeFilterWorkload(10, static_cast<std::size_t>(state.range(0)));
  HomScratch scratch;
  std::int64_t survivors = 0;
  for (auto _ : state) {
    survivors =
        SoaBuildCandidates(w.from, w.to, HomMode::kRowEmbedding, scratch);
    benchmark::DoNotOptimize(survivors);
  }
  state.counters["survivors"] = static_cast<double>(survivors);
  state.counters["rows_to"] = static_cast<double>(w.to.num_rows());
}
// The `scalar` segment keeps the series name the recorded baseline uses.
BENCHMARK(BM_FilterCandidates)
    ->Name("BM_FilterCandidates/scalar")
    ->Arg(32)
    ->Arg(128);

}  // namespace
}  // namespace bench
}  // namespace viewcap
