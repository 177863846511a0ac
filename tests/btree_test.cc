#include "index/btree.h"

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace quickview::index {
namespace {

/// (key, value) pairs whose key starts with `prefix`, in key order: the
/// Seek-and-stop loop both indexes use to scan one key prefix.
std::vector<std::pair<std::string, std::string>> ScanPrefix(
    const BTree& tree, std::string_view prefix) {
  std::vector<std::pair<std::string, std::string>> out;
  for (BTree::Iterator it = tree.Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it.key(), it.value());
  }
  return out;
}

TEST(BTreeTest, InsertGetOverwrite) {
  BTree tree;
  tree.Insert("k1", "v1");
  tree.Insert("k2", "v2");
  std::string value;
  EXPECT_TRUE(tree.Get("k1", &value));
  EXPECT_EQ(value, "v1");
  tree.Insert("k1", "v1b");
  EXPECT_TRUE(tree.Get("k1", &value));
  EXPECT_EQ(value, "v1b");
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_FALSE(tree.Get("k3", nullptr));
}

TEST(BTreeTest, EmptyTree) {
  BTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Get("x", nullptr));
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_FALSE(tree.Seek("p").Valid());
  EXPECT_TRUE(ScanPrefix(tree, "p").empty());
}

TEST(BTreeTest, IterationInKeyOrderAcrossSplits) {
  BTree tree;
  std::vector<std::string> keys;
  for (int i = 999; i >= 0; --i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    keys.push_back(buf);
    tree.Insert(buf, "v");
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_GT(tree.height(), 1);
  size_t i = 0;
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next(), ++i) {
    ASSERT_LT(i, keys.size());
    EXPECT_EQ(it.key(), keys[i]);
  }
  EXPECT_EQ(i, keys.size());
}

TEST(BTreeTest, SeekFindsFirstKeyNotLess) {
  BTree tree;
  tree.Insert("b", "1");
  tree.Insert("d", "2");
  tree.Insert("f", "3");
  EXPECT_EQ(tree.Seek("a").key(), "b");
  EXPECT_EQ(tree.Seek("b").key(), "b");
  EXPECT_EQ(tree.Seek("c").key(), "d");
  EXPECT_FALSE(tree.Seek("g").Valid());
}

TEST(BTreeTest, SeekScansOneKeyPrefix) {
  BTree tree;
  tree.Insert("path/a\x01v1", "1");
  tree.Insert("path/a\x01v2", "2");
  tree.Insert("path/ab\x01v", "3");
  tree.Insert("path/b\x01v", "4");
  auto rows = ScanPrefix(tree, "path/a\x01");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].second, "1");
  EXPECT_EQ(rows[1].second, "2");
}

TEST(BTreeTest, SeekScanCrossesLeafEdges) {
  BTree tree;
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%c%04d", i < 500 ? 'a' : 'b', i);
    tree.Insert(buf, std::to_string(i));
  }
  ASSERT_GT(tree.height(), 1);
  auto rows = ScanPrefix(tree, "b");
  ASSERT_EQ(rows.size(), 500u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].second, std::to_string(500 + i));
  }
}

TEST(BTreeTest, IteratorCopiesAreIndependentPositions) {
  BTree tree;
  for (int i = 0; i < 300; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    tree.Insert(buf, "v");
  }
  BTree::Iterator it = tree.Seek("k0063");
  BTree::Iterator copy = it;
  for (int i = 0; i < 130; ++i) copy.Next();  // across leaf edges
  EXPECT_EQ(it.key(), "k0063");
  EXPECT_EQ(copy.key(), "k0193");
  it = copy;
  it.Next();
  EXPECT_EQ(it.key(), "k0194");
  EXPECT_EQ(copy.key(), "k0193");
  BTree::Iterator end = tree.Seek("z");
  copy = end;
  EXPECT_FALSE(copy.Valid());
  BTree::Iterator defaulted;
  EXPECT_FALSE(defaulted.Valid());
}

TEST(BTreeTest, Delete) {
  BTree tree;
  for (int i = 0; i < 200; ++i) tree.Insert("k" + std::to_string(i), "v");
  EXPECT_TRUE(tree.Delete("k100"));
  EXPECT_FALSE(tree.Delete("k100"));
  EXPECT_FALSE(tree.Get("k100", nullptr));
  EXPECT_EQ(tree.size(), 199u);
  // Iteration skips deleted keys.
  size_t count = 0;
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 199u);
}

TEST(BTreeTest, RandomizedAgainstStdMap) {
  // Property test: B+-tree behaves like an ordered map under a random
  // workload of inserts, overwrites, deletes and seeks.
  BTree tree;
  std::map<std::string, std::string> reference;
  std::mt19937_64 rng(1234);
  for (int op = 0; op < 20000; ++op) {
    std::string key = "k" + std::to_string(rng() % 3000);
    switch (rng() % 4) {
      case 0:
      case 1: {
        std::string value = "v" + std::to_string(rng());
        tree.Insert(key, value);
        reference[key] = value;
        break;
      }
      case 2: {
        EXPECT_EQ(tree.Delete(key), reference.erase(key) > 0) << key;
        break;
      }
      case 3: {
        std::string value;
        bool found = tree.Get(key, &value);
        auto it = reference.find(key);
        EXPECT_EQ(found, it != reference.end()) << key;
        if (found && it != reference.end()) {
          EXPECT_EQ(value, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(tree.size(), reference.size());
  // Full iteration must match the reference map exactly.
  auto ref_it = reference.begin();
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next(), ++ref_it) {
    ASSERT_NE(ref_it, reference.end());
    EXPECT_EQ(it.key(), ref_it->first);
    EXPECT_EQ(it.value(), ref_it->second);
  }
  EXPECT_EQ(ref_it, reference.end());
}

}  // namespace
}  // namespace quickview::index
