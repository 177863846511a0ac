// Inverted-list index (paper §3.2, Fig 4b): for each term, the Dewey-
// ordered list of elements that *directly* contain it, with the term
// frequency, in a B+-tree over (term, id) composite keys ("an index such
// as a B+-tree is usually built on top of each inverted list"). Queries
// retrieve whole lists (a scan of the term's key prefix); the write path
// adds and removes single postings by key.
#ifndef QUICKVIEW_INDEX_INVERTED_INDEX_H_
#define QUICKVIEW_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "index/btree.h"
#include "xml/dewey_id.h"

namespace quickview::index {

struct Posting {
  xml::DeweyId id;
  uint32_t tf = 0;
};

class InvertedIndex {
 public:
  InvertedIndex() = default;
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Adds (accumulates) `count` occurrences of `term` directly contained
  /// by element `id`. `term` must already be lowercased.
  void Add(const std::string& term, const xml::DeweyId& id, uint32_t count);

  /// Removes the (term, id) posting entirely (live document updates);
  /// returns whether it existed.
  bool Remove(const std::string& term, const xml::DeweyId& id);

  /// Full postings list for `term`, Dewey-ordered. Empty if unknown.
  std::vector<Posting> Lookup(const std::string& term) const;

  /// Iterates every (term, id, tf) posting in (term, id) order. Used by
  /// persistence.
  void ForEachPosting(
      const std::function<void(const std::string& term,
                               const xml::DeweyId& id, uint32_t tf)>& fn)
      const;

  size_t size() const { return tree_.size(); }

 private:
  static std::string MakeKey(const std::string& term, const xml::DeweyId& id);

  BTree tree_;
};

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_INVERTED_INDEX_H_
