// The query-time index seam. PDT generation (PrepareLists, paper §4.2.1,
// Fig 7) issues exactly two kinds of index probe: one path-index lookup
// per probed QPT node and one inverted-list retrieval per keyword. That
// pair is all DocumentIndexView declares, so the same PrepareLists /
// GeneratePdt code runs over the in-memory B+-trees (DocumentIndexes,
// index/index_builder.h) or over disk-resident B-tree pages pulled on
// demand through a buffer pool (pagestore/packed_db.h). Probes against a
// paged backing can fail with real I/O errors (truncated file, checksum
// mismatch), so both return Result<> even though the in-memory backing
// cannot fail.
#ifndef QUICKVIEW_INDEX_INDEX_VIEW_H_
#define QUICKVIEW_INDEX_INDEX_VIEW_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "index/inverted_index.h"
#include "index/path_index.h"

namespace quickview::index {

/// The two probes of one document's indexes (paper §3.2, Figs 4b and 5).
class DocumentIndexView {
 public:
  virtual ~DocumentIndexView() = default;

  /// One (data path, Dewey-ordered entries) group per distinct full data
  /// path matching `pattern`, in path order; entries carry their atomic
  /// value when `with_values`.
  virtual Result<std::vector<PathRows>> LookUpPerPath(
      const PathPattern& pattern, bool with_values) const = 0;

  /// Full postings list for `term`, Dewey-ordered; empty if unknown.
  virtual Result<std::vector<Posting>> Lookup(
      const std::string& term) const = 0;
};

/// Where a query finds the indexes of a document: the in-memory
/// DatabaseIndexes or a packed on-disk database. Lookup by the document
/// name used in fn:doc().
class IndexSource {
 public:
  virtual ~IndexSource() = default;

  /// nullptr if no indexes exist for `doc_name`. The view stays valid
  /// while the source lives and the document is not removed.
  virtual const DocumentIndexView* GetView(
      const std::string& doc_name) const = 0;
};

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_INDEX_VIEW_H_
