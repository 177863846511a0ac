// Persistence round-trips: a database written to disk and loaded back —
// its indexes rebuilt at load, as every open of a database directory
// does — must answer every query identically.
#include "storage/persistence.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "storage/document_store.h"
#include "workload/bookrev_generator.h"
#include "xml/serializer.h"

namespace quickview::storage {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/qvdb_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    db_ = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
    indexes_ = index::BuildDatabaseIndexes(*db_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::shared_ptr<xml::Database> db_;
  std::unique_ptr<index::DatabaseIndexes> indexes_;
};

TEST_F(PersistenceTest, DatabaseRoundTrip) {
  ASSERT_TRUE(SaveDatabase(*db_, dir_).ok());
  auto loaded = LoadDatabase(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ((*loaded)->documents().size(), db_->documents().size());
  for (const auto& [name, doc] : db_->documents()) {
    const xml::Document* reloaded = (*loaded)->GetDocument(name);
    ASSERT_NE(reloaded, nullptr) << name;
    EXPECT_EQ(reloaded->root_component(), doc->root_component());
    EXPECT_EQ(xml::Serialize(*reloaded), xml::Serialize(*doc));
  }
}

TEST_F(PersistenceTest, ReloadedDatabaseAnswersIdentically) {
  ASSERT_TRUE(SaveDatabase(*db_, dir_).ok());
  auto loaded_db = LoadDatabase(dir_);
  ASSERT_TRUE(loaded_db.ok());
  auto loaded_idx = index::BuildDatabaseIndexes(**loaded_db);

  // Full searches over original vs reloaded state agree exactly.
  DocumentStore store_a(*db_);
  DocumentStore store_b(**loaded_db);
  engine::ViewSearchEngine original(db_.get(), indexes_.get(), &store_a);
  engine::ViewSearchEngine reloaded(loaded_db->get(), loaded_idx.get(),
                                    &store_b);
  for (const auto& keywords :
       std::vector<std::vector<std::string>>{{"xml", "search"},
                                             {"database"}}) {
    engine::SearchRequest request;
    request.view = workload::BookRevView();
    request.keywords = keywords;
    auto a = original.Execute(request);
    auto b = reloaded.Execute(request);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->hits.size(), b->hits.size());
    for (size_t i = 0; i < a->hits.size(); ++i) {
      EXPECT_EQ(a->hits[i].xml, b->hits[i].xml);
      EXPECT_DOUBLE_EQ(a->hits[i].score, b->hits[i].score);
    }
  }
}

TEST_F(PersistenceTest, LoadFromMissingDirectory) {
  auto loaded = LoadDatabase(dir_ + "_nope");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// Regression coverage for manifest hardening: corrupted manifests must
// fail with InvalidArgument (not crash in numeric parsing, not silently
// skip entries), and a manifest naming an absent document file must fail
// with NotFound.
TEST_F(PersistenceTest, CorruptedManifestIsInvalidArgument) {
  ASSERT_TRUE(SaveDatabase(*db_, dir_).ok());
  auto rewrite_manifest = [this](const std::string& content) {
    std::ofstream manifest(dir_ + "/manifest.qv", std::ios::trunc);
    manifest << content;
  };

  // A line without a separating space.
  rewrite_manifest("justoneword\n");
  auto loaded = LoadDatabase(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // A non-numeric root component used to throw out of std::stoul and
  // kill the process; now it is a clean error.
  rewrite_manifest("notanumber books.xml\n");
  loaded = LoadDatabase(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // Numeric prefix with trailing junk is still malformed, not "1".
  rewrite_manifest("1x books.xml\n");
  loaded = LoadDatabase(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // An overflowing root component must not wrap around.
  rewrite_manifest("99999999999 books.xml\n");
  loaded = LoadDatabase(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // An empty document name.
  rewrite_manifest("1 \n");
  loaded = LoadDatabase(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // The same document listed twice.
  uint32_t root = db_->documents().begin()->second->root_component();
  const std::string& name = db_->documents().begin()->first;
  std::string line = std::to_string(root) + " " + name + "\n";
  rewrite_manifest(line + line);
  loaded = LoadDatabase(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, ManifestNamingMissingDocumentFileIsNotFound) {
  ASSERT_TRUE(SaveDatabase(*db_, dir_).ok());
  {
    std::ofstream manifest(dir_ + "/manifest.qv", std::ios::app);
    manifest << "777 ghost.xml\n";
  }
  auto loaded = LoadDatabase(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("ghost.xml"), std::string::npos);
}

TEST_F(PersistenceTest, ValuesWithSpecialBytesSurvive) {
  xml::Database db;
  auto doc = std::make_shared<xml::Document>(1);
  xml::NodeIndex root = doc->CreateRoot("r");
  doc->node(doc->AddChild(root, "v")).text = "line1\nline2 & <tag> 'q'";
  db.AddDocument("special.xml", doc);
  ASSERT_TRUE(SaveDatabase(db, dir_).ok());
  auto loaded_db = LoadDatabase(dir_);
  ASSERT_TRUE(loaded_db.ok()) << loaded_db.status();
  auto loaded_idx = index::BuildDatabaseIndexes(**loaded_db);
  const xml::Document* reloaded = (*loaded_db)->GetDocument("special.xml");
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->node(1).text, "line1\nline2 & <tag> 'q'");
  // The index rebuilt over the reloaded document holds the multi-line
  // value intact.
  index::PathPattern pattern{index::PathStep{false, "r"},
                             index::PathStep{false, "v"}};
  auto rows = loaded_idx->Get("special.xml")
                  ->path_index.LookUpPerPath(pattern, /*with_values=*/true);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].entries.size(), 1u);
  EXPECT_EQ(*rows[0].entries[0].value, "line1\nline2 & <tag> 'q'");
}

}  // namespace
}  // namespace quickview::storage
