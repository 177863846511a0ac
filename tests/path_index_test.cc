#include "index/path_index.h"

#include <vector>

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace quickview::index {
namespace {

using xml::DeweyId;

PathPattern Pattern(std::initializer_list<std::pair<bool, const char*>> steps) {
  PathPattern out;
  for (auto& [descendant, tag] : steps) {
    out.push_back(PathStep{descendant, tag});
  }
  return out;
}

TEST(PatternMatchTest, ChildAxisExactMatch) {
  PathPattern p = Pattern({{false, "books"}, {false, "book"}});
  EXPECT_TRUE(PatternMatchesPath(p, "/books/book"));
  EXPECT_FALSE(PatternMatchesPath(p, "/books/book/isbn"));
  EXPECT_FALSE(PatternMatchesPath(p, "/books"));
}

TEST(PatternMatchTest, DescendantAxisGaps) {
  PathPattern p = Pattern({{false, "books"}, {true, "isbn"}});
  EXPECT_TRUE(PatternMatchesPath(p, "/books/book/isbn"));
  EXPECT_TRUE(PatternMatchesPath(p, "/books/isbn"));
  EXPECT_FALSE(PatternMatchesPath(p, "/journal/book/isbn"));
}

TEST(PatternMatchTest, RepeatingTags) {
  PathPattern p = Pattern({{true, "a"}, {true, "a"}});
  EXPECT_TRUE(PatternMatchesPath(p, "/a/a"));
  EXPECT_TRUE(PatternMatchesPath(p, "/a/b/a"));
  EXPECT_FALSE(PatternMatchesPath(p, "/a/b"));
  EXPECT_FALSE(PatternMatchesPath(p, "/a"));
}

TEST(PatternToStringTest, Rendering) {
  EXPECT_EQ(PatternToString(Pattern({{false, "books"}, {true, "isbn"}})),
            "/books//isbn");
}

class PathIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fig 1's book document.
    auto parsed = xml::ParseXml(
        "<books>"
        "<book><isbn>111-11-1111</isbn><title>XML Web Services</title>"
        "<year>2004</year></book>"
        "<book><isbn>222-22-2222</isbn><title>Artificial Intelligence</title>"
        "<year>2002</year></book>"
        "<book><title>No Isbn Book</title><year>2004</year></book>"
        "</books>");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    doc_ = *parsed;
    indexes_ = BuildDocumentIndexes(*doc_);
  }

  std::shared_ptr<xml::Document> doc_;
  std::unique_ptr<DocumentIndexes> indexes_;
};

TEST_F(PathIndexTest, DistinctPathsAndExpansion) {
  const PathIndex& index = indexes_->path_index;
  EXPECT_EQ(index.distinct_paths(), 5u);  // /books{,/book{,/isbn,/title,/year}}
  auto paths = index.ExpandPattern(Pattern({{false, "books"}, {true, "isbn"}}));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], "/books/book/isbn");
}

TEST_F(PathIndexTest, LookUpIdMergesInDeweyOrder) {
  auto entries = indexes_->path_index.LookUpId(
      Pattern({{false, "books"}, {true, "book"}, {false, "year"}}));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].id.ToString(), "1.1.3");
  EXPECT_EQ(entries[1].id.ToString(), "1.2.3");
  EXPECT_EQ(entries[2].id.ToString(), "1.3.2");  // book without isbn
  EXPECT_FALSE(entries[0].value.has_value());
  EXPECT_GT(entries[0].byte_length, 0u);
}

TEST_F(PathIndexTest, LookUpPerPathCarriesValues) {
  auto rows = indexes_->path_index.LookUpPerPath(
      Pattern({{false, "books"}, {true, "isbn"}}), /*with_values=*/true);
  ASSERT_EQ(rows.size(), 1u);
  const std::vector<PathEntry>& entries = rows[0].entries;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id.ToString(), "1.1.1");
  EXPECT_EQ(entries[1].id.ToString(), "1.2.1");
  ASSERT_TRUE(entries[0].value.has_value());
  EXPECT_EQ(*entries[0].value, "111-11-1111");
  EXPECT_EQ(*entries[1].value, "222-22-2222");
}

TEST_F(PathIndexTest, LookUpPerPathGroups) {
  auto rows = indexes_->path_index.LookUpPerPath(
      Pattern({{true, "book"}}), /*with_values=*/false);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].path, "/books/book");
  EXPECT_EQ(rows[0].entries.size(), 3u);
}

TEST_F(PathIndexTest, ByteLengthsMatchSerializedSubtrees) {
  auto entries =
      indexes_->path_index.LookUpId(Pattern({{false, "books"}}));
  ASSERT_EQ(entries.size(), 1u);
  // The whole document: byte length equals the root subtree size.
  EXPECT_EQ(entries[0].byte_length,
            xml::SubtreeByteLength(*doc_, doc_->root()));
}

TEST_F(PathIndexTest, NoMatchesForUnknownPattern) {
  EXPECT_TRUE(
      indexes_->path_index.LookUpId(Pattern({{true, "nothing"}})).empty());
}

}  // namespace
}  // namespace quickview::index
