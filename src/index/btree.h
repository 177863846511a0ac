// In-memory B+-tree on byte-string keys — the index substrate behind the
// path index and the inverted-list index (paper §3.2: "A B+-tree index is
// built on the (Path, Value) pair", "an index such as a B+-tree is usually
// built on top of each inverted list"). Supports point lookups and
// ordered iteration from any key (Seek), which is how both indexes scan
// the rows sharing a key prefix.
#ifndef QUICKVIEW_INDEX_BTREE_H_
#define QUICKVIEW_INDEX_BTREE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace quickview::index {

/// B+-tree mapping string keys to string values. Keys are unique; Insert
/// overwrites. Deletion is lazy (no rebalancing) since quickview indices
/// are bulk-built once per database load.
///
/// Thread safety: externally synchronized, thread-compatible. Lookups
/// and scans are const and may run concurrently; Insert/Delete require
/// exclusion against all other access. The tree itself carries no mutex
/// (and hence no QV_GUARDED_BY members — see common/sync.h): in the
/// live engine every BTree lives inside a DatabaseIndexes owned by
/// LiveDatabase, whose annotated reader-writer lock is the capability
/// that guards it. When latch-crabbed concurrent writers land (ROADMAP),
/// the per-node latches will be qv primitives so the same analysis
/// covers them.
class BTree {
 private:
  struct Node;
  struct Leaf;
  struct Interior;

 public:
  static constexpr int kFanout = 64;  // max keys per node

  BTree();
  ~BTree();
  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts or overwrites.
  void Insert(std::string_view key, std::string_view value);

  /// Point lookup; returns false if absent (ignoring that is always a
  /// bug — `value` is untouched then).
  [[nodiscard]] bool Get(std::string_view key, std::string* value) const;

  /// Removes the key if present; returns whether it existed.
  bool Delete(std::string_view key);

  size_t size() const { return size_; }
  int height() const { return height_; }

  /// Forward iterator over (key, value) pairs in key order: a plain
  /// (leaf, slot) position, so copies are independent and own nothing.
  class Iterator {
   public:
    bool Valid() const;
    const std::string& key() const;
    const std::string& value() const;
    void Next();

   private:
    friend class BTree;

    Leaf* leaf_ = nullptr;
    int pos_ = 0;
  };

  /// Iterator positioned at the first key >= `key`.
  Iterator Seek(std::string_view key) const;

  /// Iterator at the smallest key.
  Iterator Begin() const;

 private:
  Leaf* FindLeaf(std::string_view key) const;
  void SplitChild(Interior* parent, int child_pos);
  static void FreeNode(Node* node);

  Node* root_;
  size_t size_ = 0;
  int height_ = 1;
};

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_BTREE_H_
