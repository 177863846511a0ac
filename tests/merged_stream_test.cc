// MergedRankedStream and the sharded cursor around it: cross-shard ties
// must break deterministically (shard asc, then position asc — global
// view order under the contiguous partition), empty shards must be
// transparent, the one-shard sharded engine must be byte-identical to
// the unsharded engine, and cancellation after a satisfied FetchNext(k)
// must leave no shard task running. Runs under the TSan CI leg (the
// cancellation test exercises pool workers against cursor teardown).
#include "engine/merged_ranked_stream.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "storage/shard_set.h"
#include "workload/bookrev_generator.h"

namespace quickview::engine {
namespace {

RankedStream MakeStream(const std::vector<double>& scores) {
  RankedStream stream;
  for (size_t i = 0; i < scores.size(); ++i) stream.Push(scores[i], i);
  return stream;
}

TEST(MergedRankedStreamTest, CrossShardTiesBreakByShardThenPosition) {
  // Three shards, every candidate scored identically: the pop order must
  // be exactly (shard 0 pos 0..n), (shard 1 pos 0..n), ... — the global
  // view order of the contiguous partition, regardless of insert order.
  MergedRankedStream merged;
  merged.AddShard(MakeStream({0.5, 0.5}));
  merged.AddShard(MakeStream({0.5}));
  merged.AddShard(MakeStream({0.5, 0.5, 0.5}));

  std::vector<std::pair<size_t, size_t>> order;
  while (!merged.Empty()) {
    MergedRankedStream::Entry e = merged.Pop();
    EXPECT_EQ(e.score, 0.5);
    order.emplace_back(e.shard, e.position);
  }
  std::vector<std::pair<size_t, size_t>> expected{
      {0, 0}, {0, 1}, {1, 0}, {2, 0}, {2, 1}, {2, 2}};
  EXPECT_EQ(order, expected);
}

TEST(MergedRankedStreamTest, HigherScoreWinsAcrossShards) {
  MergedRankedStream merged;
  merged.AddShard(MakeStream({0.1, 0.9, 0.4}));
  merged.AddShard(MakeStream({0.8, 0.2}));
  merged.AddShard(MakeStream({0.6}));

  std::vector<double> scores;
  while (!merged.Empty()) scores.push_back(merged.Pop().score);
  std::vector<double> expected{0.9, 0.8, 0.6, 0.4, 0.2, 0.1};
  EXPECT_EQ(scores, expected);
}

TEST(MergedRankedStreamTest, EmptyShardsAreTransparent) {
  MergedRankedStream merged;
  merged.AddShard(RankedStream{});
  merged.AddShard(MakeStream({0.7, 0.3}));
  merged.AddShard(RankedStream{});
  merged.AddShard(MakeStream({0.5}));
  merged.AddShard(RankedStream{});

  EXPECT_EQ(merged.Size(), 3u);
  EXPECT_EQ(merged.Pop().score, 0.7);
  EXPECT_EQ(merged.Pop().score, 0.5);
  EXPECT_EQ(merged.Pop().score, 0.3);
  EXPECT_TRUE(merged.Empty());
}

TEST(MergedRankedStreamTest, AllShardsEmptyIsEmpty) {
  MergedRankedStream merged;
  merged.AddShard(RankedStream{});
  merged.AddShard(RankedStream{});
  EXPECT_TRUE(merged.Empty());
  EXPECT_EQ(merged.Size(), 0u);
}

TEST(MergedRankedStreamTest, OneShardDegeneratesToRankedStream) {
  const std::vector<double> scores{0.2, 0.9, 0.9, 0.1, 0.5};
  RankedStream reference = MakeStream(scores);
  MergedRankedStream merged;
  merged.AddShard(MakeStream(scores));

  while (!merged.Empty()) {
    RankedStream::Entry expected = reference.Pop();
    MergedRankedStream::Entry actual = merged.Pop();
    EXPECT_EQ(actual.score, expected.score);
    EXPECT_EQ(actual.position, expected.position);
    EXPECT_EQ(actual.shard, 0u);
  }
  EXPECT_TRUE(reference.Empty());
}

// ---------------------------------------------------------------------
// Sharded-cursor integration around the merge.

class ShardedCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::BookRevOptions opts;
    opts.num_books = 120;
    db_ = workload::GenerateBookRevDatabase(opts);
    storage::ShardingSpec spec;
    spec.shards = 4;
    spec.colocate_tag = "isbn";
    auto shards = storage::ShardSet::Partition(*db_, spec);
    ASSERT_TRUE(shards.ok()) << shards.status();
    shards_ = std::make_unique<storage::ShardSet>(std::move(*shards));
  }

  static SearchRequest MakeRequest(size_t top_k = 10) {
    SearchRequest request;
    request.view = workload::BookRevView();
    request.keywords = {"xml", "search"};
    request.options.top_k = top_k;
    request.options.conjunctive = false;
    return request;
  }

  std::shared_ptr<xml::Database> db_;
  std::unique_ptr<storage::ShardSet> shards_;
};

TEST_F(ShardedCursorTest, CancellationAfterSatisfiedFetchLeavesNoTask) {
  ThreadPool pool(4);
  ViewSearchEngine engine(ShardContexts(*shards_), &pool);

  auto token = std::make_shared<CancellationToken>();
  SearchRequest request = MakeRequest(/*top_k=*/5);
  request.cancel = token;

  auto cursor = engine.Open(request);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  // Open is a barrier: no shard task survives it, whatever happens next.
  EXPECT_FALSE(token->Fired());

  auto hits = (*cursor)->FetchNext(5);
  ASSERT_TRUE(hits.ok()) << hits.status();
  ASSERT_EQ(hits->size(), 5u);
  EXPECT_TRUE((*cursor)->Done());
  // The satisfied top-k budget fires the caller's token...
  EXPECT_TRUE(token->cancel_requested());
  // ...and the pool is quiescent: Drain() returns because nothing holds
  // a queued or running shard task (TSan would flag a racing leftover).
  pool.Drain();
  cursor->reset();
  pool.Drain();
}

TEST_F(ShardedCursorTest, CursorDestructionFiresToken) {
  ThreadPool pool(2);
  ViewSearchEngine engine(ShardContexts(*shards_), &pool);
  auto token = std::make_shared<CancellationToken>();
  SearchRequest request = MakeRequest(/*top_k=*/50);
  request.cancel = token;
  {
    auto cursor = engine.Open(request);
    ASSERT_TRUE(cursor.ok()) << cursor.status();
    auto two = (*cursor)->FetchNext(2);
    ASSERT_TRUE(two.ok());
    EXPECT_FALSE(token->cancel_requested()) << "budget not yet satisfied";
  }  // abandoned half-drained: the destructor must fire the token
  EXPECT_TRUE(token->cancel_requested());
  pool.Drain();
}

TEST_F(ShardedCursorTest, PreCancelledRequestIsRejectedTyped) {
  ThreadPool pool(2);
  ViewSearchEngine engine(ShardContexts(*shards_), &pool);
  auto token = std::make_shared<CancellationToken>();
  token->Cancel();
  SearchRequest request = MakeRequest();
  request.cancel = token;
  auto cursor = engine.Open(request);
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kCancelled);
  pool.Drain();
}

TEST_F(ShardedCursorTest, OneShardShardedEngineByteIdenticalToUnsharded) {
  // The degenerate sharded engine (N=1 partition of the same corpus)
  // must reproduce the plain triple-constructed engine byte for byte.
  storage::ShardingSpec one;
  one.shards = 1;
  auto single = storage::ShardSet::Partition(*db_, one);
  ASSERT_TRUE(single.ok()) << single.status();
  ThreadPool pool(2);
  ViewSearchEngine sharded(ShardContexts(*single), &pool);

  auto indexes = index::BuildDatabaseIndexes(*db_);
  storage::DocumentStore store(*db_);
  ViewSearchEngine unsharded(db_.get(), indexes.get(), &store);

  SearchRequest request = MakeRequest(/*top_k=*/25);
  auto a = sharded.Execute(request);
  auto b = unsharded.Execute(request);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->hits.size(), b->hits.size());
  ASSERT_FALSE(a->hits.empty());
  EXPECT_EQ(a->stats.view_results, b->stats.view_results);
  EXPECT_EQ(a->stats.matching_results, b->stats.matching_results);
  for (size_t i = 0; i < a->hits.size(); ++i) {
    SCOPED_TRACE("hit " + std::to_string(i));
    EXPECT_EQ(a->hits[i].xml, b->hits[i].xml);
    EXPECT_EQ(a->hits[i].tf, b->hits[i].tf);
    EXPECT_EQ(a->hits[i].byte_length, b->hits[i].byte_length);
    EXPECT_DOUBLE_EQ(a->hits[i].score, b->hits[i].score);
  }
}

}  // namespace
}  // namespace quickview::engine
