// Round-trip and byte-length properties of the XML substrate on random
// documents: serialize∘parse must be the identity on serialized form, and
// SubtreeByteLength must equal the serialized size everywhere (it is the
// len(e) of score normalization, so an off-by-one here silently breaks
// Theorem 4.1 parity).
#include <algorithm>
#include <random>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "xml/dom.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace quickview::xml {
namespace {

std::shared_ptr<Document> RandomDocument(std::mt19937_64* rng) {
  static const char* kTags[] = {"a", "bee", "c-d", "x_y", "tag9"};
  static const char* kTexts[] = {"", "hello world", "a&b", "<tag>",
                                 "it's \"quoted\"", "multi  space",
                                 "1995", "xml search xml"};
  auto doc = std::make_shared<Document>(1 + (*rng)() % 5);
  NodeIndex root = doc->CreateRoot(kTags[(*rng)() % 5]);
  doc->node(root).text = kTexts[(*rng)() % 8];
  std::vector<std::pair<NodeIndex, int>> frontier = {{root, 1}};
  int budget = static_cast<int>((*rng)() % 40);
  while (budget-- > 0 && !frontier.empty()) {
    auto [parent, depth] = frontier[(*rng)() % frontier.size()];
    NodeIndex child = doc->AddChild(parent, kTags[(*rng)() % 5]);
    doc->node(child).text = kTexts[(*rng)() % 8];
    if (depth < 6) frontier.emplace_back(child, depth + 1);
  }
  return doc;
}

class XmlRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(XmlRoundTripProperty, SerializeParseSerializeIsStable) {
  std::mt19937_64 rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    auto doc = RandomDocument(&rng);
    std::string first = Serialize(*doc);
    auto reparsed = ParseXml(first, doc->root_component());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << first;
    EXPECT_EQ(Serialize(**reparsed), first);
    // Same elements, same Dewey ids (node storage order may differ:
    // generation order vs document order).
    ASSERT_EQ((*reparsed)->size(), doc->size());
    auto snapshot = [](const Document& d) {
      std::set<std::tuple<std::string, std::string, std::string>> out;
      for (NodeIndex i = 0; i < d.size(); ++i) {
        out.insert({d.node(i).id.ToString(), d.node(i).tag,
                    d.node(i).text});
      }
      return out;
    };
    EXPECT_EQ(snapshot(**reparsed), snapshot(*doc));
  }
}

TEST_P(XmlRoundTripProperty, ByteLengthEqualsSerializedSizeEverywhere) {
  std::mt19937_64 rng(GetParam() + 1000);
  for (int round = 0; round < 25; ++round) {
    auto doc = RandomDocument(&rng);
    for (NodeIndex i = 0; i < doc->size(); ++i) {
      EXPECT_EQ(SubtreeByteLength(*doc, i), Serialize(*doc, i).size());
    }
  }
}

TEST_P(XmlRoundTripProperty, IndexedTfMatchesTokenizerEverywhere) {
  // The inverted index must agree with a direct tokenization of the
  // document — the foundation of tf parity.
  std::mt19937_64 rng(GetParam() + 2000);
  auto doc = RandomDocument(&rng);
  auto indexes = index::BuildDocumentIndexes(*doc);
  for (NodeIndex i = 0; i < doc->size(); ++i) {
    std::map<std::string, uint32_t> direct;
    for (const std::string& term : DirectTerms(doc->node(i))) {
      ++direct[term];
    }
    for (const auto& [term, count] : direct) {
      std::vector<index::Posting> postings =
          indexes->inverted_index.Lookup(term);
      auto it = std::find_if(postings.begin(), postings.end(),
                             [&](const index::Posting& posting) {
                               return posting.id == doc->node(i).id;
                             });
      ASSERT_NE(it, postings.end()) << term;
      EXPECT_EQ(it->tf, count) << term;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace quickview::xml
