// OpenBackend is the one way the tools open a corpus. Every source kind —
// the built-in corpus, a database directory, a .qvpack with a delta log,
// a .qvset, an in-memory partition, a live corpus with and without a WAL
// — must serve the built-in view with answers byte-identical to an
// in-memory Execute over the same documents, and every contradictory
// flag combination must be InvalidArgument.
#include "service/backend.h"

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pagestore/delta_log.h"
#include "pagestore/pack.h"
#include "pagestore/shard_pack.h"
#include "storage/document_store.h"
#include "storage/persistence.h"
#include "workload/bookrev_generator.h"
#include "xml/parser.h"

namespace quickview::service {
namespace {

/// The replacement reviews.xml the delta-log and WAL cases write.
constexpr char kNewReviews[] =
    "<reviews><review><isbn>100-10-1000</isbn><rate>Good</rate>"
    "<content>about xml and search, easy to read</content>"
    "<reviewer>reviewer1</reviewer></review></reviews>";

struct Query {
  std::vector<std::string> keywords;
  bool conjunctive = true;
};

const std::vector<Query>& Queries() {
  static const std::vector<Query> queries{{{"xml", "search"}, true},
                                          {{"xml", "search"}, false},
                                          {{"database"}, true},
                                          {{"web", "practice"}, false}};
  return queries;
}

/// Everything of a response but its timings and I/O counters, as text.
std::string Render(const Result<engine::SearchResponse>& response) {
  if (!response.ok()) return "error: " + response.status().ToString() + "\n";
  std::string out = std::to_string(response->stats.matching_results) + "/" +
                    std::to_string(response->stats.view_results) + "\n";
  for (const engine::SearchHit& hit : response->hits) {
    out += std::to_string(hit.score) + " " + std::to_string(hit.byte_length);
    for (uint64_t tf : hit.tf) out += " " + std::to_string(tf);
    out += "\n" + hit.xml + "\n";
  }
  return out;
}

/// The reference: in-memory Execute over `db`.
std::string ExpectedAnswers(const xml::Database& db) {
  auto indexes = index::BuildDatabaseIndexes(db);
  storage::DocumentStore store(db);
  engine::ViewSearchEngine engine(&db, indexes.get(), &store);
  std::string out;
  for (const Query& query : Queries()) {
    engine::SearchRequest request;
    request.view = workload::BookRevView();
    request.keywords = query.keywords;
    request.options.conjunctive = query.conjunctive;
    out += Render(engine.Execute(request));
  }
  return out;
}

std::string ServedAnswers(QueryService* service) {
  std::string out;
  for (const Query& query : Queries()) {
    BatchQuery batch;
    batch.view = "default";
    batch.keywords = query.keywords;
    batch.options.conjunctive = query.conjunctive;
    out += Render(service->SearchOne(batch));
  }
  return out;
}

class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/qv_backend_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    demo_ = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// The demo corpus with reviews.xml replaced by kNewReviews.
  std::shared_ptr<xml::Database> ReplacedReviews() const {
    auto db = std::make_shared<xml::Database>();
    for (const auto& [name, doc] : demo_->documents()) {
      if (name != "reviews.xml") {
        db->AddDocument(name, doc);
        continue;
      }
      auto replaced = xml::ParseXml(kNewReviews, doc->root_component());
      EXPECT_TRUE(replaced.ok()) << replaced.status();
      db->AddDocument(name, *replaced);
    }
    return db;
  }

  /// Opens `spec` into `backend_out`, registers the built-in view on a
  /// new service in `service_out` and returns the service's answers.
  std::string Serve(const BackendSpec& spec, Backend* backend_out,
                    std::unique_ptr<QueryService>* service_out) {
    auto backend = OpenBackend(spec);
    EXPECT_TRUE(backend.ok()) << backend.status();
    if (!backend.ok()) return "";
    *backend_out = std::move(*backend);
    *service_out = backend_out->NewService();
    Status registered =
        (*service_out)->RegisterView("default", workload::BookRevView());
    EXPECT_TRUE(registered.ok()) << registered;
    return ServedAnswers(service_out->get());
  }

  std::string Serve(const BackendSpec& spec) {
    Backend backend;
    std::unique_ptr<QueryService> service;
    return Serve(spec, &backend, &service);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
  std::shared_ptr<xml::Database> demo_;
};

TEST_F(BackendTest, BuiltInCorpus) {
  const std::string expected = ExpectedAnswers(*demo_);
  EXPECT_EQ(Serve(BackendSpec{}), expected);
  BackendSpec demo;
  demo.demo = true;
  EXPECT_EQ(Serve(demo), expected);
}

TEST_F(BackendTest, DatabaseDirectory) {
  const std::string dir = Path("db");
  ASSERT_TRUE(storage::SaveDatabase(*demo_, dir).ok());
  BackendSpec spec;
  spec.source = dir;
  EXPECT_EQ(Serve(spec), ExpectedAnswers(*demo_));
  // Opening builds the indexes in memory; nothing is written back.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    EXPECT_TRUE(name == "manifest.qv" || name.rfind("doc_", 0) == 0) << name;
  }
}

TEST_F(BackendTest, PackWithDeltaLog) {
  const std::string pack = Path("demo.qvpack");
  auto indexes = index::BuildDatabaseIndexes(*demo_);
  ASSERT_TRUE(pagestore::PackDatabase(*demo_, *indexes, pack).ok());
  ASSERT_TRUE(pagestore::PackTombstone(pack, "reviews.xml").ok());
  ASSERT_TRUE(pagestore::PackAppend(pack, "reviews.xml", kNewReviews).ok());

  BackendSpec spec;
  spec.source = pack;
  spec.frames = 16;
  Backend backend;
  std::unique_ptr<QueryService> service;
  EXPECT_EQ(Serve(spec, &backend, &service),
            ExpectedAnswers(*ReplacedReviews()));
  EXPECT_NE(backend.summary.find("delta log: 1 inserts, 1 tombstones"),
            std::string::npos)
      << backend.summary;
  const engine::BufferCounters buffer = service->stats().engine.buffer;
  EXPECT_GT(buffer.misses, 0u);
  EXPECT_EQ(buffer.frame_capacity, 16u);
}

TEST_F(BackendTest, ShardSet) {
  const std::string qvset = Path("demo.qvset");
  storage::ShardingSpec sharding;
  sharding.shards = 3;
  sharding.colocate_tag = "isbn";
  ASSERT_TRUE(pagestore::PackShardedDb(*demo_, sharding, qvset).ok());

  BackendSpec spec;
  spec.source = qvset;
  Backend backend;
  std::unique_ptr<QueryService> service;
  EXPECT_EQ(Serve(spec, &backend, &service), ExpectedAnswers(*demo_));
  ASSERT_NE(backend.shards, nullptr);
  EXPECT_EQ(backend.ShardContexts().size(), 3u);
  const engine::BufferCounters buffer = service->stats().engine.buffer;
  EXPECT_GT(buffer.misses, 0u);
  EXPECT_GT(buffer.frame_capacity, 0u);
}

TEST_F(BackendTest, InMemoryPartition) {
  BackendSpec spec;
  spec.shards = 4;
  spec.colocate = "isbn";
  Backend backend;
  std::unique_ptr<QueryService> service;
  EXPECT_EQ(Serve(spec, &backend, &service), ExpectedAnswers(*demo_));
  ASSERT_NE(backend.shards, nullptr);
  EXPECT_EQ(backend.ShardContexts().size(), 4u);
}

TEST_F(BackendTest, Live) {
  BackendSpec spec;
  spec.live = true;
  Backend backend;
  std::unique_ptr<QueryService> service;
  EXPECT_EQ(Serve(spec, &backend, &service), ExpectedAnswers(*demo_));
  const std::string replaced = ExpectedAnswers(*ReplacedReviews());
  ASSERT_NE(replaced, ExpectedAnswers(*demo_)) << "the insert must show";
  ASSERT_TRUE(service->InsertDocument("reviews.xml", kNewReviews).ok());
  EXPECT_EQ(ServedAnswers(service.get()), replaced);
}

TEST_F(BackendTest, LiveWalReopenReplaysAckedInserts) {
  BackendSpec spec;
  spec.live = true;
  spec.wal = Path("live.wal");
  const std::string replaced = ExpectedAnswers(*ReplacedReviews());
  {
    Backend backend;
    std::unique_ptr<QueryService> service;
    EXPECT_EQ(Serve(spec, &backend, &service), ExpectedAnswers(*demo_));
    ASSERT_TRUE(service->InsertDocument("reviews.xml", kNewReviews).ok());
    EXPECT_EQ(ServedAnswers(service.get()), replaced);
  }
  Backend reopened;
  std::unique_ptr<QueryService> service;
  EXPECT_EQ(Serve(spec, &reopened, &service), replaced);
  EXPECT_NE(reopened.summary.find("replayed 1 committed records"),
            std::string::npos)
      << reopened.summary;
}

TEST_F(BackendTest, ContradictoryFlagsAreInvalidArgument) {
  const std::string pack = Path("demo.qvpack");
  auto indexes = index::BuildDatabaseIndexes(*demo_);
  ASSERT_TRUE(pagestore::PackDatabase(*demo_, *indexes, pack).ok());

  std::vector<std::pair<std::string, BackendSpec>> rejected;
  BackendSpec spec;
  spec.demo = true;
  spec.source = pack;
  rejected.emplace_back("--demo with a source", spec);
  spec = BackendSpec{};
  spec.source = pack;
  spec.shards = 2;
  rejected.emplace_back("--shards over a .qvpack", spec);
  spec.source = Path("demo.qvset");
  rejected.emplace_back("--shards over a .qvset", spec);
  spec = BackendSpec{};
  spec.source = pack;
  spec.live = true;
  rejected.emplace_back("--live over a .qvpack", spec);
  spec = BackendSpec{};
  spec.live = true;
  spec.shards = 2;
  rejected.emplace_back("--live with --shards", spec);
  spec = BackendSpec{};
  spec.wal = Path("never.wal");
  rejected.emplace_back("--wal without --live", spec);
  spec = BackendSpec{};
  spec.colocate = "isbn";
  rejected.emplace_back("--colocate without --shards", spec);

  for (const auto& [what, bad] : rejected) {
    auto backend = OpenBackend(bad);
    ASSERT_FALSE(backend.ok()) << what;
    EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument)
        << what << ": " << backend.status();
  }
  EXPECT_FALSE(std::filesystem::exists(Path("never.wal")));
}

}  // namespace
}  // namespace quickview::service
