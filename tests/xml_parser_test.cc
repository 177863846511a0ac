#include "xml/parser.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "xml/serializer.h"

namespace quickview::xml {
namespace {

TEST(XmlParserTest, SimpleDocument) {
  auto result = ParseXml("<a><b>hello</b><c/></a>");
  ASSERT_TRUE(result.ok()) << result.status();
  const Document& doc = **result;
  EXPECT_EQ(doc.node(doc.root()).tag, "a");
  ASSERT_EQ(doc.node(doc.root()).children.size(), 2u);
  const Node& b = doc.node(doc.node(doc.root()).children[0]);
  EXPECT_EQ(b.tag, "b");
  EXPECT_EQ(b.text, "hello");
  EXPECT_EQ(doc.node(doc.node(doc.root()).children[1]).tag, "c");
}

TEST(XmlParserTest, AttributesBecomeLeadingSubelements) {
  auto result = ParseXml("<book isbn=\"111-11\"><title>X</title></book>");
  ASSERT_TRUE(result.ok()) << result.status();
  const Document& doc = **result;
  ASSERT_EQ(doc.node(doc.root()).children.size(), 2u);
  const Node& isbn = doc.node(doc.node(doc.root()).children[0]);
  EXPECT_EQ(isbn.tag, "isbn");
  EXPECT_EQ(isbn.text, "111-11");
  EXPECT_EQ(isbn.id.ToString(), "1.1");  // attribute gets the first ordinal
}

TEST(XmlParserTest, EntitiesAndCdata) {
  auto result = ParseXml("<a>x &amp; y &lt;z&gt; &#65;<![CDATA[<raw>]]></a>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->node(0).text, "x & y <z> A<raw>");
}

TEST(XmlParserTest, PrologCommentsAndPis) {
  auto result = ParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hi --><a><!-- in -->"
      "<?pi data?><b/></a><!-- after -->");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->node(0).tag, "a");
  EXPECT_EQ((*result)->node(0).children.size(), 1u);
}

TEST(XmlParserTest, WhitespaceOnlyTextIsDropped) {
  auto result = ParseXml("<a>\n  <b>x</b>\n</a>");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->node(0).text, "");
}

TEST(XmlParserTest, CustomRootComponent) {
  auto result = ParseXml("<a><b/></a>", 5);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->node(0).id.ToString(), "5");
  EXPECT_EQ((*result)->node(1).id.ToString(), "5.1");
}

TEST(XmlParserTest, ErrorsCarryPositions) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a><b></a>").ok());       // mismatched end tag
  EXPECT_FALSE(ParseXml("<a>").ok());              // unterminated
  EXPECT_FALSE(ParseXml("<a></a><b></b>").ok());   // two roots
  EXPECT_FALSE(ParseXml("<a x=novalue></a>").ok());  // unquoted attribute
  Status s = ParseXml("<a><b></a>").status();
  EXPECT_NE(s.message().find("byte"), std::string::npos);
}

TEST(XmlParserTest, RoundTripThroughSerializer) {
  const char* kInput =
      "<books><book><isbn>111-11-1111</isbn><title>XML Web Services</title>"
      "<year>2004</year></book><book><isbn>222-22-2222</isbn>"
      "<title>Artificial Intelligence</title></book></books>";
  auto result = ParseXml(kInput);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(Serialize(**result), kInput);
}

TEST(XmlParserTest, DeepNesting) {
  std::string input;
  for (int i = 0; i < 50; ++i) input += "<a>";
  input += "x";
  for (int i = 0; i < 50; ++i) input += "</a>";
  auto result = ParseXml(input);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->size(), 50u);
}

/// `levels` nested <a> elements around the text `inner`.
std::string NestedElements(int levels, const std::string& inner) {
  std::string out;
  for (int i = 0; i < levels; ++i) out += "<a>";
  out += inner;
  for (int i = 0; i < levels; ++i) out += "</a>";
  return out;
}

TEST(XmlParserTest, DocumentAtTheNestingLimitParsesIndexesAndSerializes) {
  const std::string input = NestedElements(kMaxNestingDepth, "deepword");
  auto result = ParseXml(input);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->size(), static_cast<size_t>(kMaxNestingDepth));
  EXPECT_EQ(Serialize(**result), input);
  auto indexes = index::BuildDocumentIndexes(**result);
  const std::vector<index::Posting> postings =
      indexes->inverted_index.Lookup("deepword");
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(postings[0].id.depth(), static_cast<size_t>(kMaxNestingDepth));
}

TEST(XmlParserTest, NestingPastTheLimitIsInvalidArgument) {
  for (int levels : {kMaxNestingDepth + 1, 100000}) {
    const Status status = ParseXml(NestedElements(levels, "x")).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << levels << " levels: " << status;
    EXPECT_NE(status.message().find("nesting"), std::string::npos) << status;
  }
}

}  // namespace
}  // namespace quickview::xml
