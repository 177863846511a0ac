// Builds the per-document path and inverted-list indices for a Database —
// the offline "load time" work of a traditional full-text XML engine
// (paper §1), after which queries over virtual views never scan base data.
// Each document's DocumentIndexes is itself the in-memory backing of the
// query-time seam (index/index_view.h): it answers the two PDT probes
// from its own B+-trees.
#ifndef QUICKVIEW_INDEX_INDEX_BUILDER_H_
#define QUICKVIEW_INDEX_INDEX_BUILDER_H_

#include <map>
#include <memory>
#include <string>

#include "index/index_view.h"
#include "index/inverted_index.h"
#include "index/path_index.h"
#include "xml/dom.h"

namespace quickview::index {

/// The indices for one document, serving the two query-time probes
/// straight from its in-memory B+-trees.
class DocumentIndexes final : public DocumentIndexView {
 public:
  PathIndex path_index;
  InvertedIndex inverted_index;

  Result<std::vector<PathRows>> LookUpPerPath(
      const PathPattern& pattern, bool with_values) const override {
    return path_index.LookUpPerPath(pattern, with_values);
  }
  Result<std::vector<Posting>> Lookup(const std::string& term) const override {
    return inverted_index.Lookup(term);
  }

  /// Incremental write path (live document updates): adds / removes every
  /// path-index entry and posting of `doc` in place, without rebuilding.
  /// Replacing a document under the same name is RemoveDocument(old) +
  /// AddDocument(new). Requires a finalized path index (BuildDocumentIndexes
  /// output); external synchronization against concurrent readers.
  void AddDocument(const xml::Document& doc);
  void RemoveDocument(const xml::Document& doc);
};

/// Indices for every document in a database, keyed by document name (the
/// name used in fn:doc()). Implements IndexSource so the engine can run
/// the identical pipeline over this in-memory backing or over a packed
/// on-disk database.
class DatabaseIndexes : public IndexSource {
 public:
  const DocumentIndexes* Get(const std::string& doc_name) const;
  DocumentIndexes* GetMutable(const std::string& doc_name);
  void Put(const std::string& doc_name, std::unique_ptr<DocumentIndexes> idx);

  /// Drops the document's indices (per-document posting removal at
  /// corpus granularity); returns whether they existed.
  bool Remove(const std::string& doc_name);

  const DocumentIndexView* GetView(
      const std::string& doc_name) const override {
    return Get(doc_name);
  }

  const std::map<std::string, std::unique_ptr<DocumentIndexes>>& all() const {
    return indexes_;
  }

 private:
  std::map<std::string, std::unique_ptr<DocumentIndexes>> indexes_;
};

/// Builds path + inverted indices for one document.
std::unique_ptr<DocumentIndexes> BuildDocumentIndexes(
    const xml::Document& doc);

/// Builds indices for every document in `database`.
std::unique_ptr<DatabaseIndexes> BuildDatabaseIndexes(
    const xml::Database& database);

}  // namespace quickview::index

#endif  // QUICKVIEW_INDEX_INDEX_BUILDER_H_
