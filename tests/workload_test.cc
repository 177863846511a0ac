#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "workload/bookrev_generator.h"
#include "workload/inex_generator.h"
#include "workload/view_factory.h"
#include "xml/serializer.h"
#include "xquery/parser.h"

namespace quickview::workload {
namespace {

TEST(InexGeneratorTest, ProducesAllDocuments) {
  InexOptions opts;
  opts.target_bytes = 32 * 1024;
  auto db = GenerateInexDatabase(opts);
  for (const char* name :
       {"inex.xml", "authors.xml", "groups.xml", "supergroups.xml",
        "affil.xml", "venues.xml", "awards.xml"}) {
    ASSERT_NE(db->GetDocument(name), nullptr) << name;
    EXPECT_TRUE(db->GetDocument(name)->has_root()) << name;
  }
}

TEST(InexGeneratorTest, SizeKnobScalesOutput) {
  InexOptions small;
  small.target_bytes = 16 * 1024;
  InexOptions large = small;
  large.target_bytes = 64 * 1024;
  auto small_db = GenerateInexDatabase(small);
  auto large_db = GenerateInexDatabase(large);
  const xml::Document* small_doc = small_db->GetDocument("inex.xml");
  const xml::Document* large_doc = large_db->GetDocument("inex.xml");
  uint64_t small_bytes = xml::SubtreeByteLength(*small_doc, 0);
  uint64_t large_bytes = xml::SubtreeByteLength(*large_doc, 0);
  EXPECT_GT(large_bytes, 3 * small_bytes);
  // Rough accuracy of the target: within 2x either way.
  EXPECT_GT(small_bytes, small.target_bytes / 2);
  EXPECT_LT(small_bytes, small.target_bytes * 2);
}

TEST(InexGeneratorTest, DeterministicForSeed) {
  InexOptions opts;
  opts.target_bytes = 16 * 1024;
  auto a = GenerateInexDatabase(opts);
  auto b = GenerateInexDatabase(opts);
  EXPECT_EQ(xml::Serialize(*a->GetDocument("inex.xml")),
            xml::Serialize(*b->GetDocument("inex.xml")));
  opts.seed = 43;
  auto c = GenerateInexDatabase(opts);
  EXPECT_NE(xml::Serialize(*a->GetDocument("inex.xml")),
            xml::Serialize(*c->GetDocument("inex.xml")));
}

TEST(InexGeneratorTest, SelectivityTiersOrderPostingCounts) {
  InexOptions opts;
  opts.target_bytes = 128 * 1024;
  auto db = GenerateInexDatabase(opts);
  auto indexes = index::BuildDatabaseIndexes(*db);
  const auto& inv = indexes->Get("inex.xml")->inverted_index;
  // Low selectivity = frequent terms = long lists; high = short.
  size_t low = inv.Lookup("ieee").size();
  size_t medium = inv.Lookup("thomas").size();
  size_t high = inv.Lookup("moore").size();
  EXPECT_GT(low, medium);
  EXPECT_GT(medium, high);
  EXPECT_GT(high, 0u);
}

TEST(InexGeneratorTest, JoinSelectivityReplicatesAuthors) {
  // Lower selectivity = smaller author pool in articles = more articles
  // joined per matching author (the paper's replication model), while the
  // total number of authored articles stays the same.
  InexOptions opts;
  opts.target_bytes = 512 * 1024;
  opts.join_selectivity = 1.0;
  auto full = GenerateInexDatabase(opts);
  opts.join_selectivity = 0.1;
  auto replicated = GenerateInexDatabase(opts);
  auto distinct_authors = [](const xml::Database& db) {
    const xml::Document* doc = db.GetDocument("inex.xml");
    std::set<std::string> names;
    size_t total = 0;
    for (xml::NodeIndex i = 0; i < doc->size(); ++i) {
      if (doc->node(i).tag == "au") {
        names.insert(doc->node(i).text);
        ++total;
      }
    }
    return std::make_pair(names.size(), total);
  };
  auto [full_distinct, full_total] = distinct_authors(*full);
  auto [repl_distinct, repl_total] = distinct_authors(*replicated);
  // 0.1X confines authors to a tenth of the pool (<= 26 of 256 names);
  // 1X spreads them far wider, so matches-per-author differ ~10x.
  EXPECT_LE(repl_distinct, 26u);
  EXPECT_GT(full_distinct, 2 * repl_distinct);
  EXPECT_EQ(full_total, repl_total);
}

TEST(InexGeneratorTest, ElementSizeFactorGrowsArticles) {
  InexOptions opts;
  opts.target_bytes = 32 * 1024;
  auto small = GenerateInexDatabase(opts);
  opts.element_size_factor = 4;
  auto large = GenerateInexDatabase(opts);
  auto article_count = [](const xml::Database& db) {
    const xml::Document* doc = db.GetDocument("inex.xml");
    size_t count = 0;
    for (xml::NodeIndex i = 0; i < doc->size(); ++i) {
      if (doc->node(i).tag == "article") ++count;
    }
    return count;
  };
  // Same total bytes but bigger articles => fewer articles.
  EXPECT_LT(article_count(*large), article_count(*small));
}

TEST(ViewFactoryTest, AllSpecsParse) {
  for (int joins = 0; joins <= 4; ++joins) {
    for (int nesting = 1; nesting <= 4; ++nesting) {
      ViewSpec spec;
      spec.num_joins = joins;
      spec.nesting_level = nesting;
      std::string view = BuildInexView(spec);
      auto query = xquery::ParseQuery(view);
      EXPECT_TRUE(query.ok())
          << "joins=" << joins << " nesting=" << nesting << ": "
          << query.status() << "\n" << view;
    }
  }
}

TEST(BookRevGeneratorTest, MatchesPaperExample) {
  auto db = GenerateBookRevDatabase(BookRevOptions{});
  ASSERT_NE(db->GetDocument("books.xml"), nullptr);
  ASSERT_NE(db->GetDocument("reviews.xml"), nullptr);
  auto query = xquery::ParseKeywordQuery(BookRevKeywordQuery());
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->keywords, (std::vector<std::string>{"xml", "search"}));
}

}  // namespace
}  // namespace quickview::workload
