// Sharded query execution scaling: the same ~1000-match disjunctive
// query over the same corpus partitioned 1/2/4/8 ways, measuring what
// the coordinator pays cold (per-shard PDT build + evaluation on the
// critical path) and warm (cached per-shard PreparedQueries; open is
// evaluation + scoring + merge only), for a first page of 10 and for a
// full drain. First-10 counters must show the merge frontier's laziness
// surviving sharding: store fetches proportional to the page at every
// shard count, never to the match count.
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"

namespace quickview::bench {
namespace {

struct ShardScalingFixture {
  std::shared_ptr<xml::Database> db;
  // One pre-partitioned shard set and thread pool per measured count.
  std::map<int, storage::ShardSet> shard_sets;
  std::unique_ptr<ThreadPool> pool;
};

constexpr int kShardCounts[] = {1, 2, 4, 8};

ShardScalingFixture& GetShardScalingFixture() {
  static auto* fixture = [] {
    auto f = new ShardScalingFixture();
    workload::BookRevOptions opts;
    opts.num_books = 1800;
    opts.max_reviews_per_book = 4;
    f->db = workload::GenerateBookRevDatabase(opts);
    for (int shards : kShardCounts) {
      storage::ShardingSpec spec;
      spec.shards = shards;
      spec.colocate_tag = "isbn";
      auto set = storage::ShardSet::Partition(*f->db, spec);
      if (!set.ok()) {
        fprintf(stderr, "FATAL Partition(%d): %s\n", shards,
                set.status().ToString().c_str());
        abort();
      }
      f->shard_sets.emplace(shards, std::move(*set));
    }
    f->pool = std::make_unique<ThreadPool>(4);
    return f;
  }();
  return *fixture;
}

std::vector<engine::ShardContext> ContextsFor(int shards) {
  return engine::ShardContexts(GetShardScalingFixture().shard_sets.at(shards));
}

engine::SearchRequest MakeRequest() {
  engine::SearchRequest request;
  request.view = workload::BookRevView();
  request.keywords = {"xml", "search", "web", "database"};
  request.options.conjunctive = false;
  request.options.top_k = 1u << 20;  // stream every match
  return request;
}

constexpr size_t kPage = 10;

void ReportShardCounters(benchmark::State& state,
                         const engine::EngineStats& stats) {
  state.counters["matches"] = benchmark::Counter(
      static_cast<double>(stats.search.matching_results));
  state.counters["store_fetches"] = benchmark::Counter(
      static_cast<double>(stats.search.store_fetches));
  state.counters["pdt_ms"] = benchmark::Counter(stats.timings.pdt_ms);
  state.counters["eval_ms"] = benchmark::Counter(stats.timings.eval_ms);
}

/// Cold: plan + per-shard PDT build + evaluation + merge every
/// iteration, then one page (or the full drain).
void RunCold(benchmark::State& state, bool drain) {
  ShardScalingFixture& fixture = GetShardScalingFixture();
  const int shards = static_cast<int>(state.range(0));
  engine::ViewSearchEngine engine(ContextsFor(shards), fixture.pool.get());
  const engine::SearchRequest request = MakeRequest();
  engine::EngineStats last;
  for (auto _ : state) {
    auto cursor = DieOnError(engine.Open(request), "Open");
    auto hits = DieOnError(
        cursor->FetchNext(drain ? cursor->pending() : kPage), "FetchNext");
    benchmark::DoNotOptimize(hits);
    last = cursor->stats();
  }
  ReportShardCounters(state, last);
}

/// Warm: per-shard PreparedQueries built once outside the loop (the
/// service cache's steady state); an iteration pays evaluation +
/// scoring + merge + materialization only.
void RunWarm(benchmark::State& state, bool drain) {
  ShardScalingFixture& fixture = GetShardScalingFixture();
  const int shards = static_cast<int>(state.range(0));
  engine::ViewSearchEngine engine(ContextsFor(shards), fixture.pool.get());
  const engine::SearchRequest request = MakeRequest();

  std::vector<std::shared_ptr<const engine::PreparedQuery>> prepared;
  for (int s = 0; s < shards; ++s) {
    auto plan = DieOnError(
        engine.PlanQuery(engine::ComposeKeywordQuery(
            request.view, request.keywords, request.options.conjunctive)),
        "PlanQuery");
    prepared.push_back(
        DieOnError(engine.BuildPdts(std::move(plan), s), "BuildPdts"));
  }

  engine::EngineStats last;
  for (auto _ : state) {
    auto cursor = DieOnError(engine.Open(request, prepared), "Open");
    auto hits = DieOnError(
        cursor->FetchNext(drain ? cursor->pending() : kPage), "FetchNext");
    benchmark::DoNotOptimize(hits);
    last = cursor->stats();
  }
  ReportShardCounters(state, last);
}

void BM_ShardFirst10Cold(benchmark::State& state) {
  RunCold(state, /*drain=*/false);
}
BENCHMARK(BM_ShardFirst10Cold)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ShardFirst10Warm(benchmark::State& state) {
  RunWarm(state, /*drain=*/false);
}
BENCHMARK(BM_ShardFirst10Warm)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ShardDrainAllCold(benchmark::State& state) {
  RunCold(state, /*drain=*/true);
}
BENCHMARK(BM_ShardDrainAllCold)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ShardDrainAllWarm(benchmark::State& state) {
  RunWarm(state, /*drain=*/true);
}
BENCHMARK(BM_ShardDrainAllWarm)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace quickview::bench

BENCHMARK_MAIN();
