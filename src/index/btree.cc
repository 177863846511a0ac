#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace quickview::index {

struct BTree::Node {
  bool is_leaf;
  std::vector<std::string> keys;

  explicit Node(bool leaf) : is_leaf(leaf) {}
};

struct BTree::Leaf : BTree::Node {
  std::vector<std::string> values;
  Leaf* next = nullptr;

  Leaf() : Node(/*leaf=*/true) {}
};

struct BTree::Interior : BTree::Node {
  // children.size() == keys.size() + 1; keys[i] is the smallest key
  // reachable through children[i + 1].
  std::vector<Node*> children;

  Interior() : Node(/*leaf=*/false) {}
};

BTree::BTree() : root_(new Leaf()) {}

void BTree::FreeNode(Node* node) {
  if (!node->is_leaf) {
    for (Node* child : static_cast<Interior*>(node)->children) {
      FreeNode(child);
    }
    delete static_cast<Interior*>(node);
  } else {
    delete static_cast<Leaf*>(node);
  }
}

BTree::~BTree() { FreeNode(root_); }

namespace {

// Index of the child to descend into for `key`.
int ChildIndex(const std::vector<std::string>& keys, std::string_view key) {
  auto it = std::upper_bound(keys.begin(), keys.end(), key,
                             [](std::string_view a, const std::string& b) {
                               return a < std::string_view(b);
                             });
  return static_cast<int>(it - keys.begin());
}

}  // namespace

BTree::Leaf* BTree::FindLeaf(std::string_view key) const {
  Node* node = root_;
  while (!node->is_leaf) {
    Interior* interior = static_cast<Interior*>(node);
    node = interior->children[ChildIndex(interior->keys, key)];
  }
  return static_cast<Leaf*>(node);
}

void BTree::SplitChild(Interior* parent, int child_pos) {
  Node* child = parent->children[child_pos];
  size_t mid = child->keys.size() / 2;
  if (child->is_leaf) {
    Leaf* left = static_cast<Leaf*>(child);
    Leaf* right = new Leaf();
    right->keys.assign(left->keys.begin() + mid, left->keys.end());
    right->values.assign(left->values.begin() + mid, left->values.end());
    left->keys.resize(mid);
    left->values.resize(mid);
    right->next = left->next;
    left->next = right;
    parent->keys.insert(parent->keys.begin() + child_pos,
                        right->keys.front());
    parent->children.insert(parent->children.begin() + child_pos + 1, right);
  } else {
    Interior* left = static_cast<Interior*>(child);
    Interior* right = new Interior();
    // keys[mid] moves up; right gets keys after it.
    std::string up = left->keys[mid];
    right->keys.assign(left->keys.begin() + mid + 1, left->keys.end());
    right->children.assign(left->children.begin() + mid + 1,
                           left->children.end());
    left->keys.resize(mid);
    left->children.resize(mid + 1);
    parent->keys.insert(parent->keys.begin() + child_pos, std::move(up));
    parent->children.insert(parent->children.begin() + child_pos + 1, right);
  }
}

void BTree::Insert(std::string_view key, std::string_view value) {
  if (root_->keys.size() >= kFanout) {
    Interior* new_root = new Interior();
    new_root->children.push_back(root_);
    SplitChild(new_root, 0);
    root_ = new_root;
    ++height_;
  }
  Node* node = root_;
  while (!node->is_leaf) {
    Interior* interior = static_cast<Interior*>(node);
    int pos = ChildIndex(interior->keys, key);
    if (interior->children[pos]->keys.size() >= kFanout) {
      SplitChild(interior, pos);
      if (key >= std::string_view(interior->keys[pos])) ++pos;
    }
    node = interior->children[pos];
  }
  Leaf* leaf = static_cast<Leaf*>(node);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key,
                             [](const std::string& a, std::string_view b) {
                               return std::string_view(a) < b;
                             });
  size_t pos = static_cast<size_t>(it - leaf->keys.begin());
  if (it != leaf->keys.end() && *it == key) {
    leaf->values[pos] = std::string(value);
    return;
  }
  leaf->keys.insert(it, std::string(key));
  leaf->values.insert(leaf->values.begin() + pos, std::string(value));
  ++size_;
}

bool BTree::Get(std::string_view key, std::string* value) const {
  Leaf* leaf = FindLeaf(key);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key,
                             [](const std::string& a, std::string_view b) {
                               return std::string_view(a) < b;
                             });
  if (it == leaf->keys.end() || *it != key) return false;
  if (value != nullptr) {
    *value = leaf->values[it - leaf->keys.begin()];
  }
  return true;
}

bool BTree::Delete(std::string_view key) {
  Leaf* leaf = FindLeaf(key);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key,
                             [](const std::string& a, std::string_view b) {
                               return std::string_view(a) < b;
                             });
  if (it == leaf->keys.end() || *it != key) return false;
  size_t pos = static_cast<size_t>(it - leaf->keys.begin());
  leaf->keys.erase(it);
  leaf->values.erase(leaf->values.begin() + pos);
  --size_;
  return true;
}

bool BTree::Iterator::Valid() const {
  return leaf_ != nullptr && pos_ < static_cast<int>(leaf_->keys.size());
}

const std::string& BTree::Iterator::key() const {
  assert(Valid());
  return leaf_->keys[pos_];
}

const std::string& BTree::Iterator::value() const {
  assert(Valid());
  return leaf_->values[pos_];
}

void BTree::Iterator::Next() {
  assert(Valid());
  ++pos_;
  while (leaf_ != nullptr && pos_ >= static_cast<int>(leaf_->keys.size())) {
    leaf_ = leaf_->next;
    pos_ = 0;
  }
}

BTree::Iterator BTree::Seek(std::string_view key) const {
  Leaf* leaf = FindLeaf(key);
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key,
                             [](const std::string& a, std::string_view b) {
                               return std::string_view(a) < b;
                             });
  Iterator iter;
  iter.leaf_ = leaf;
  iter.pos_ = static_cast<int>(it - leaf->keys.begin());
  // Skip an exhausted leaf (possible after lazy deletes).
  while (iter.leaf_ != nullptr &&
         iter.pos_ >= static_cast<int>(iter.leaf_->keys.size())) {
    iter.leaf_ = iter.leaf_->next;
    iter.pos_ = 0;
  }
  return iter;
}

BTree::Iterator BTree::Begin() const { return Seek(""); }

}  // namespace quickview::index
