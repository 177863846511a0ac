#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "xml/parser.h"

namespace quickview::index {
namespace {

using xml::DeweyId;

TEST(InvertedIndexTest, AddLookupOrdered) {
  InvertedIndex index;
  index.Add("xml", DeweyId::Parse("1.2.3"), 2);
  index.Add("xml", DeweyId::Parse("1.1.4"), 1);
  index.Add("search", DeweyId::Parse("2.1.3"), 5);
  auto postings = index.Lookup("xml");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].id.ToString(), "1.1.4");
  EXPECT_EQ(postings[0].tf, 1u);
  EXPECT_EQ(postings[1].id.ToString(), "1.2.3");
  EXPECT_EQ(postings[1].tf, 2u);
  EXPECT_TRUE(index.Lookup("absent").empty());
}

TEST(InvertedIndexTest, AddAccumulates) {
  InvertedIndex index;
  index.Add("xml", DeweyId::Parse("1.1"), 1);
  index.Add("xml", DeweyId::Parse("1.1"), 3);
  index.Add("xml", DeweyId::Parse("1.1"), 0);  // no-op
  auto postings = index.Lookup("xml");
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(postings[0].id.ToString(), "1.1");
  EXPECT_EQ(postings[0].tf, 4u);
}

TEST(InvertedIndexTest, NoCrossTermBleedWithPrefixTerms) {
  // "xml" and "xmls" share a prefix; the separator must keep lists apart.
  InvertedIndex index;
  index.Add("xml", DeweyId::Parse("1.1"), 1);
  index.Add("xmls", DeweyId::Parse("1.2"), 1);
  EXPECT_EQ(index.Lookup("xml").size(), 1u);
  EXPECT_EQ(index.Lookup("xmls").size(), 1u);
}

TEST(IndexBuilderTest, DirectContainmentOnly) {
  auto parsed = xml::ParseXml(
      "<book><title>xml search</title><review>"
      "<content>about xml</content></review></book>");
  ASSERT_TRUE(parsed.ok());
  auto indexes = BuildDocumentIndexes(**parsed);
  // "xml" is directly contained by title (1.1) and content (1.2.1) only —
  // not by their ancestors.
  auto postings = indexes->inverted_index.Lookup("xml");
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].id.ToString(), "1.1");
  EXPECT_EQ(postings[1].id.ToString(), "1.2.1");
  // Tag names are terms of the element itself.
  auto book = indexes->inverted_index.Lookup("book");
  ASSERT_EQ(book.size(), 1u);
  EXPECT_EQ(book[0].id.ToString(), "1");
  auto title = indexes->inverted_index.Lookup("title");
  ASSERT_EQ(title.size(), 1u);
  EXPECT_EQ(title[0].id.ToString(), "1.1");
}

TEST(IndexBuilderTest, DatabaseIndexesPerDocument) {
  xml::Database db;
  auto a = xml::ParseXml("<a><x>foo</x></a>", 1);
  auto b = xml::ParseXml("<b><y>bar</y></b>", 2);
  ASSERT_TRUE(a.ok() && b.ok());
  db.AddDocument("a.xml", *a);
  db.AddDocument("b.xml", *b);
  auto indexes = BuildDatabaseIndexes(db);
  ASSERT_NE(indexes->Get("a.xml"), nullptr);
  ASSERT_NE(indexes->Get("b.xml"), nullptr);
  EXPECT_EQ(indexes->Get("c.xml"), nullptr);
  EXPECT_EQ(indexes->Get("a.xml")->inverted_index.Lookup("foo").size(), 1u);
  EXPECT_TRUE(indexes->Get("a.xml")->inverted_index.Lookup("bar").empty());
}

}  // namespace
}  // namespace quickview::index
