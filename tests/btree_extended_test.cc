// Extended B+-tree coverage: boundary keys, leaf-chain integrity after
// deletes, Seek-driven prefix scans at structural edges, and bulk
// ordering under adversarial insertion orders.
#include "index/btree.h"

#include <algorithm>
#include <map>
#include <random>

#include <gtest/gtest.h>

namespace quickview::index {
namespace {

/// Keys starting with `prefix`, by the Seek-and-stop loop both indexes
/// use to scan one key prefix.
size_t CountPrefix(const BTree& tree, std::string_view prefix) {
  size_t count = 0;
  for (BTree::Iterator it = tree.Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, prefix.size(), prefix) != 0) break;
    ++count;
  }
  return count;
}

TEST(BTreeExtendedTest, EmptyStringKeyIsValid) {
  BTree tree;
  tree.Insert("", "empty");
  tree.Insert("a", "letter");
  std::string value;
  EXPECT_TRUE(tree.Get("", &value));
  EXPECT_EQ(value, "empty");
  EXPECT_EQ(tree.Begin().key(), "");
}

TEST(BTreeExtendedTest, BinaryKeysWithEmbeddedSeparators) {
  BTree tree;
  std::string key1 = std::string("a") + '\x01' + "b";
  std::string key2 = std::string("a") + '\x01' + '\x00' + "b";
  tree.Insert(key1, "1");
  tree.Insert(key2, "2");
  std::string value;
  EXPECT_TRUE(tree.Get(key1, &value));
  EXPECT_EQ(value, "1");
  EXPECT_TRUE(tree.Get(key2, &value));
  EXPECT_EQ(value, "2");
}

TEST(BTreeExtendedTest, LeafChainSurvivesHeavyDeletion) {
  BTree tree;
  for (int i = 0; i < 2000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i);
    tree.Insert(buf, "v");
  }
  // Delete every key in two whole leaf-sized stripes.
  for (int i = 300; i < 500; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i);
    ASSERT_TRUE(tree.Delete(buf));
  }
  // Iteration skips the hole without stalling or duplicating.
  int count = 0;
  std::string last;
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_LT(last, it.key());
    last = it.key();
    ++count;
  }
  EXPECT_EQ(count, 1800);
  // Seek into the hole lands on the first surviving key.
  EXPECT_EQ(tree.Seek("k00400").key(), "k00500");
}

TEST(BTreeExtendedTest, DeleteThenReinsertRoundTrips) {
  // The live index write path deletes and re-inserts the same key space
  // on every document replacement; the tree must stay equivalent to a
  // reference map through randomized delete/reinsert waves.
  BTree tree;
  std::map<std::string, std::string> reference;
  std::mt19937_64 rng(99);
  auto key_of = [](int k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", k);
    return std::string(buf);
  };
  for (int i = 0; i < 1500; ++i) {
    tree.Insert(key_of(i), "v0");
    reference[key_of(i)] = "v0";
  }
  for (int wave = 1; wave <= 4; ++wave) {
    for (int n = 0; n < 400; ++n) {
      std::string key = key_of(static_cast<int>(rng() % 1500));
      if (rng() % 2 == 0) {
        EXPECT_EQ(tree.Delete(key), reference.erase(key) != 0) << key;
      } else {
        std::string value = "v" + std::to_string(wave);
        tree.Insert(key, value);
        reference[key] = value;
      }
    }
    ASSERT_EQ(tree.size(), reference.size()) << "wave " << wave;
    auto expected = reference.begin();
    for (BTree::Iterator it = tree.Begin(); it.Valid();
         it.Next(), ++expected) {
      ASSERT_NE(expected, reference.end());
      EXPECT_EQ(it.key(), expected->first);
      EXPECT_EQ(it.value(), expected->second);
    }
    EXPECT_EQ(expected, reference.end());
  }
}

TEST(BTreeExtendedTest, IteratorSkipsRemovalsAheadOfIt) {
  // An iterator positioned before a region that is subsequently deleted
  // must advance past the hole (and any fully emptied leaves) without
  // stalling, duplicating or touching dead entries.
  BTree tree;
  auto key_of = [](int k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", k);
    return std::string(buf);
  };
  for (int i = 0; i < 2000; ++i) tree.Insert(key_of(i), "v");
  BTree::Iterator it = tree.Begin();
  for (int i = 1000; i < 1500; ++i) ASSERT_TRUE(tree.Delete(key_of(i)));
  int seen = 0;
  std::string last;
  for (; it.Valid(); it.Next()) {
    EXPECT_LT(last, it.key());
    EXPECT_TRUE(it.key() < key_of(1000) || it.key() >= key_of(1500));
    last = it.key();
    ++seen;
  }
  EXPECT_EQ(seen, 1500);
}

TEST(BTreeExtendedTest, DeleteEverythingThenRebuild) {
  BTree tree;
  auto key_of = [](int k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", k);
    return std::string(buf);
  };
  for (int i = 0; i < 1200; ++i) tree.Insert(key_of(i), "old");
  for (int i = 0; i < 1200; ++i) ASSERT_TRUE(tree.Delete(key_of(i)));
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_FALSE(tree.Get(key_of(7), nullptr));
  // Re-insertion over the emptied (but still structured) tree splits and
  // chains correctly again.
  for (int i = 0; i < 1200; ++i) tree.Insert(key_of(i), "new");
  EXPECT_EQ(tree.size(), 1200u);
  int count = 0;
  for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.value(), "new");
    ++count;
  }
  EXPECT_EQ(count, 1200);
}

TEST(BTreeExtendedTest, DeleteMissingAndDoubleDeleteAreNoOps) {
  BTree tree;
  tree.Insert("a", "1");
  tree.Insert("b", "2");
  EXPECT_FALSE(tree.Delete("c"));
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.Delete("a"));
  EXPECT_FALSE(tree.Delete("a"));
  EXPECT_EQ(tree.size(), 1u);
  std::string value;
  EXPECT_TRUE(tree.Get("b", &value));
  EXPECT_EQ(value, "2");
}

TEST(BTreeExtendedTest, SeekScanAtStructuralEdges) {
  BTree tree;
  for (int i = 0; i < 500; ++i) {
    tree.Insert("p" + std::to_string(i / 100) + "/" + std::to_string(i),
                "v");
  }
  // 500 keys span several leaves, so each prefix run crosses leaf edges.
  ASSERT_GT(tree.height(), 1);
  EXPECT_EQ(CountPrefix(tree, "p4/"), 100u);
  EXPECT_EQ(CountPrefix(tree, "p0/"), 100u);
  EXPECT_EQ(CountPrefix(tree, "p9/"), 0u);
  EXPECT_EQ(CountPrefix(tree, "p"), 500u);
}

TEST(BTreeExtendedTest, DescendingAndAlternatingInsertionOrders) {
  for (int mode = 0; mode < 2; ++mode) {
    BTree tree;
    std::vector<std::string> keys;
    for (int i = 0; i < 1000; ++i) {
      int k = mode == 0 ? 999 - i : (i % 2 == 0 ? i : 999 - i);
      char buf[16];
      std::snprintf(buf, sizeof(buf), "k%04d", k);
      keys.push_back(buf);
      tree.Insert(buf, "v");
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    size_t i = 0;
    for (BTree::Iterator it = tree.Begin(); it.Valid(); it.Next(), ++i) {
      ASSERT_LT(i, keys.size());
      EXPECT_EQ(it.key(), keys[i]);
    }
    EXPECT_EQ(i, keys.size());
  }
}

TEST(BTreeExtendedTest, LargeValuesRoundTrip) {
  BTree tree;
  std::string big(100000, 'x');
  big[50000] = '\0';
  tree.Insert("big", big);
  std::string value;
  ASSERT_TRUE(tree.Get("big", &value));
  EXPECT_EQ(value, big);
}

TEST(BTreeExtendedTest, SeekOnEmptyAndPastEnd) {
  BTree tree;
  EXPECT_FALSE(tree.Seek("anything").Valid());
  tree.Insert("m", "v");
  EXPECT_FALSE(tree.Seek("z").Valid());
  EXPECT_TRUE(tree.Seek("a").Valid());
}

}  // namespace
}  // namespace quickview::index
