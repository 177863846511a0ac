// Path index (paper §3.2, Fig 5): a Path-Values table with one row per
// unique (Path, Value) pair, mapping to the Dewey-ordered list of ids of
// elements on that path with that atomic value, backed by a B+-tree over
// the composite (Path, Value) key. A probe expands a '//' pattern
// against the dictionary of distinct full data paths, then scans each
// matching path's rows as one key prefix; value predicates are checked
// on the values that scan returns.
// Entries additionally carry the subtree byte length of each element,
// which is how PDTs obtain byte lengths "solely using indices".
#ifndef QUICKVIEW_INDEX_PATH_INDEX_H_
#define QUICKVIEW_INDEX_PATH_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "index/btree.h"
#include "xml/dewey_id.h"

namespace quickview::index {

/// One step of a path pattern: axis ('/' or '//') plus a tag-name test.
struct PathStep {
  bool descendant = false;  // true for '//'
  std::string tag;

  bool operator==(const PathStep&) const = default;
};

/// A root-anchored path pattern such as /books//book/isbn.
using PathPattern = std::vector<PathStep>;

/// Renders a pattern as "/books//book/isbn".
std::string PatternToString(const PathPattern& pattern);

/// An id retrieved from the path index, with its element's subtree byte
/// length and (when the probe asked for values) its atomic value.
struct PathEntry {
  xml::DeweyId id;
  uint64_t byte_length = 0;
  std::optional<std::string> value;
};

/// One (data path, Dewey-ordered entries) group per distinct full data
/// path matching a pattern. PDT generation needs the per-path grouping
/// to map each id's ancestors back to QPT nodes.
struct PathRows {
  std::string path;
  std::vector<PathEntry> entries;
};

/// Composite (Path, Value) B+-tree key: path, '\x01' separator (below any
/// tag or value character we produce), value. Shared with the on-disk
/// path index so both backings scan identical key spaces.
std::string MakePathValueKey(const std::string& path,
                             const std::string& value);

/// Serialized row payload: count-prefixed (Dewey id, byte length) pairs.
/// The same bytes live in the in-memory B+-tree values and in packed
/// B-tree-node pages on disk.
std::string EncodePathEntryList(
    const std::vector<std::pair<xml::DeweyId, uint64_t>>& entries);

/// Appends the row's entries to `out`, each carrying `value` (or nullopt).
void DecodePathEntryListInto(const std::string& encoded,
                             const std::optional<std::string>& value,
                             std::vector<PathEntry>* out);

class PathIndex {
 public:
  PathIndex() = default;
  PathIndex(const PathIndex&) = delete;
  PathIndex& operator=(const PathIndex&) = delete;
  PathIndex(PathIndex&&) = default;
  PathIndex& operator=(PathIndex&&) = default;

  /// Registers an element on `path` (a full data path like
  /// "/books/book/isbn") with atomic value `value` (empty string is the
  /// null value of Fig 5). Must be called in non-decreasing Dewey order
  /// per (path, value) pair; the builder guarantees document order.
  void AddEntry(const std::string& path, const std::string& value,
                const xml::DeweyId& id, uint64_t byte_length);

  /// Moves buffered rows into the B+-tree. Lookups before Finalize()
  /// see nothing.
  void Finalize();

  /// Incremental write path (live document updates). Both methods operate
  /// on the finalized B+-tree with read-modify-write of the affected
  /// (path, value) row and keep the distinct-path dictionary consistent;
  /// they must not be mixed with un-finalized AddEntry buffering.
  ///
  /// InsertEntry adds (or replaces, when `id` is already present in the
  /// row) a single element entry.
  void InsertEntry(const std::string& path, const std::string& value,
                   const xml::DeweyId& id, uint64_t byte_length);

  /// Removes the entry for `id` from the (path, value) row; returns
  /// whether it existed. Deletes the row (and, when it was the path's
  /// last row, the path dictionary entry) once empty.
  bool RemoveEntry(const std::string& path, const std::string& value,
                   const xml::DeweyId& id);

  /// Distinct full data paths matching the pattern, in path order
  /// ("the index is probed for each full data path", §3.2).
  std::vector<std::string> ExpandPattern(const PathPattern& pattern) const;

  /// All ids on paths matching `pattern`, merged into one Dewey-ordered
  /// list (LookUpID of Fig 7). Values are not materialized.
  std::vector<PathEntry> LookUpId(const PathPattern& pattern) const;

  /// One Dewey-ordered row group per distinct data path matching
  /// `pattern`, in path order; with `with_values` each entry carries its
  /// atomic value (LookUpIDValue of Fig 7 — "combining retrieval of IDs
  /// and values"). The path probe PDT generation issues.
  std::vector<PathRows> LookUpPerPath(const PathPattern& pattern,
                                      bool with_values) const;

  /// Iterates every (path, value, entries) row in key order. Values of
  /// entries carry no `value` field (the row's value is the 2nd argument).
  /// Used by persistence.
  void ForEachRow(
      const std::function<void(const std::string& path,
                               const std::string& value,
                               const std::vector<PathEntry>& entries)>& fn)
      const;

  /// Iterates every raw (composite key, encoded row) pair in key order —
  /// the exact bytes a packed database stores in its B-tree-node pages.
  void ForEachRaw(const std::function<void(const std::string& key,
                                           const std::string& value)>& fn)
      const;

  /// Sorted distinct full data paths (the dictionary ExpandPattern
  /// matches against; a packed database persists it in its directory).
  const std::vector<std::string>& distinct_path_list() const {
    return paths_;
  }

  size_t distinct_paths() const { return paths_.size(); }
  size_t rows() const { return tree_.size(); }

 private:
  /// Appends the entries of every (path, value) row of the data path
  /// `path`, in key order; values attached when `with_values`.
  void AppendPathEntries(const std::string& path, bool with_values,
                         std::vector<PathEntry>* out) const;

  BTree tree_;
  // Buffered rows before Finalize: (path, value) -> entries.
  std::map<std::pair<std::string, std::string>,
           std::vector<std::pair<xml::DeweyId, uint64_t>>>
      pending_;
  std::vector<std::string> paths_;  // sorted distinct full data paths
  // Live (path, value) row count per path: how InsertEntry/RemoveEntry
  // know when a path enters or leaves the dictionary above.
  std::map<std::string, size_t> path_rows_;
};

/// True iff the full data path `path` (e.g. "/books/book/isbn") matches
/// the pattern (e.g. /books//isbn).
bool PatternMatchesPath(const PathPattern& pattern, const std::string& path);

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_PATH_INDEX_H_
