// Microbenchmarks for the index substrates: B+-tree point ops, path-index
// probes (the unit of PrepareLists cost) and inverted-list scans.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "index/btree.h"

namespace quickview::bench {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    index::BTree tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert("key" + std::to_string(i), "value");
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BTreeGet(benchmark::State& state) {
  index::BTree tree;
  for (int i = 0; i < state.range(0); ++i) {
    tree.Insert("key" + std::to_string(i), "value");
  }
  int i = 0;
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Get("key" + std::to_string(i++ % state.range(0)), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeGet)->Arg(1000)->Arg(100000);

void BM_PathIndexProbe(benchmark::State& state) {
  workload::InexOptions opts;
  Fixture& fixture = GetFixture(opts);
  const index::PathIndex& index =
      fixture.indexes->Get("inex.xml")->path_index;
  index::PathPattern pattern{index::PathStep{false, "books"},
                             index::PathStep{true, "article"},
                             index::PathStep{false, "year"}};
  for (auto _ : state) {
    auto rows = index.LookUpPerPath(pattern, /*with_values=*/true);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_PathIndexProbe)->Unit(benchmark::kMicrosecond);

void BM_InvertedListScan(benchmark::State& state) {
  workload::InexOptions opts;
  Fixture& fixture = GetFixture(opts);
  const index::InvertedIndex& index =
      fixture.indexes->Get("inex.xml")->inverted_index;
  // "ieee" is the low-selectivity (long-list) term.
  for (auto _ : state) {
    auto postings = index.Lookup("ieee");
    benchmark::DoNotOptimize(postings);
  }
}
BENCHMARK(BM_InvertedListScan)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
