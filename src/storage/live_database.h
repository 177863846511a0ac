// LiveDatabase: the mutable face of an in-memory corpus — documents, their
// per-document path/inverted indices, and a copy-on-write DocumentStore
// snapshot chain. Queries over a static corpus never needed a write path;
// a service ingesting and deleting documents while queries run does, and
// it must maintain the indexes incrementally instead of rebuilding them.
//
//   InsertDocument(name, xml)  parse -> assign the document's root Dewey
//                              component (reused on replacement, fresh
//                              otherwise — the "path ordinal" every id in
//                              the document starts with) -> per-document
//                              index maintenance (posting removal + re-add
//                              in place for replacements, a fresh bulk
//                              build for new names) -> publish a new store
//                              snapshot.
//   RemoveDocument(name)       drop the document, its indices and its
//                              store entry.
//
// Snapshot isolation: every mutation publishes a NEW DocumentStore that
// shares the unchanged documents by shared_ptr; readers that captured the
// previous snapshot (open cursors) keep materializing from the exact
// corpus state they were opened against, including removed documents. A
// failed mutation (bad XML, unknown name) changes nothing — readers can
// never observe a half-applied update.
//
// Thread safety: the database OWNS its reader-writer lock but callers
// drive it — mutations and multi-call read sequences must span one
// critical section (a query must see the corpus entirely before or
// entirely after an update, and QueryService bumps view data epochs
// under the same exclusive hold as the mutation they tag). The lock
// discipline is compiler-enforced: every accessor is QV_REQUIRES(mu())
// and clang's thread-safety analysis rejects call sites that don't hold
// it — take a qv::ReaderLock/WriterLock on mu() first. Snapshots
// returned by store() are immutable and safe to use lock-free after
// capture.
#ifndef QUICKVIEW_STORAGE_LIVE_DATABASE_H_
#define QUICKVIEW_STORAGE_LIVE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "index/index_builder.h"
#include "obs/metrics.h"
#include "pagestore/wal.h"
#include "storage/document_store.h"
#include "xml/dom.h"

namespace quickview::storage {

class LiveDatabase {
 public:
  /// Starts empty (documents arrive through InsertDocument).
  LiveDatabase();

  /// Adopts an existing corpus: shares its documents, builds their
  /// indices, publishes the first store snapshot.
  explicit LiveDatabase(std::shared_ptr<xml::Database> initial);

  LiveDatabase(const LiveDatabase&) = delete;
  LiveDatabase& operator=(const LiveDatabase&) = delete;

  /// The corpus lock. Readers hold it shared across every database()/
  /// indexes()/store() sequence that must see one corpus state; writers
  /// hold it exclusively across InsertDocument/RemoveDocument (plus any
  /// bookkeeping that must publish atomically with the mutation, e.g.
  /// QueryService's view data epochs).
  qv::SharedMutex& mu() const QV_RETURN_CAPABILITY(mu_) { return mu_; }

  /// Parses `xml_text` and registers it under `name`. An existing name is
  /// replaced in place: its root Dewey component is kept, its old postings
  /// and path entries are removed from the live B+-trees and the new
  /// document's are inserted. A new name gets the smallest unused root
  /// component and a bulk-built index. ParseError on bad input (state
  /// untouched).
  Status InsertDocument(const std::string& name, const std::string& xml_text)
      QV_REQUIRES(mu_);

  /// Unregisters `name`, dropping its indices and store entry. NotFound
  /// if absent. Store snapshots captured earlier keep the document alive.
  Status RemoveDocument(const std::string& name) QV_REQUIRES(mu_);

  /// Attaches a write-ahead log at `path` and replays its committed
  /// records into the corpus (a torn tail is truncated — see
  /// pagestore/wal.h). Call once, before the database is shared with
  /// other threads; afterwards CommitInsert/CommitRemove are the durable
  /// mutation entry points. InvalidArgument if a WAL is already attached.
  Status OpenWal(const std::string& path,
                 const pagestore::WalOptions& options = {}) QV_EXCLUDES(mu_);

  /// The attached WAL (nullptr when none) — replay info, instruments.
  const pagestore::Wal* wal() const { return wal_.get(); }

  /// Durable insert/replace: the XML is parsed once, up front (bad input
  /// fails before anything is logged); the record is group-committed to
  /// the WAL (fdatasync) and only then is the parsed document installed
  /// under the exclusive lock, so an acknowledged mutation can always be
  /// replayed. `post_apply` (when
  /// provided) runs after a successful apply, under the same exclusive
  /// hold — bookkeeping that must publish atomically with the mutation
  /// (QueryService's view data epochs) goes there. Without an attached
  /// WAL these degrade to the plain in-memory mutation under the lock.
  Status CommitInsert(const std::string& name, const std::string& xml_text,
                      const std::function<void()>& post_apply = nullptr)
      QV_EXCLUDES(mu_);

  /// Durable remove. NotFound (nothing logged) if `name` is absent at
  /// the pre-check; under a concurrent-remover race the tombstone may
  /// still commit and the loser gets NotFound — replay treats a
  /// tombstone for an absent name as a no-op, so recovery is unaffected.
  Status CommitRemove(const std::string& name,
                      const std::function<void()>& post_apply = nullptr)
      QV_EXCLUDES(mu_);

  /// Current corpus / index surface. Pointers are valid only while the
  /// shared lock is held (a mutation may replace per-document indexes in
  /// place).
  const xml::Database* database() const QV_REQUIRES_SHARED(mu_) {
    return db_.get();
  }
  const index::DatabaseIndexes* indexes() const QV_REQUIRES_SHARED(mu_) {
    return indexes_.get();
  }

  /// Current immutable store snapshot. Capture under the shared lock;
  /// safe to fetch from lock-free afterwards (open cursors pin it).
  std::shared_ptr<const DocumentStore> store() const QV_REQUIRES_SHARED(mu_) {
    return store_;
  }

  std::vector<std::string> document_names() const QV_REQUIRES_SHARED(mu_);

  /// Registers the database's instruments (qv_livedb_*) under `labels`.
  /// Safe without the corpus lock: the instruments are atomics
  /// maintained by the mutation path. The database must outlive the
  /// registry reads.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         obs::LabelSet labels = {}) const;

 private:
  mutable qv::SharedMutex mu_;
  // Set once by OpenWal before the database is shared; the Wal itself is
  // internally synchronized (its group-commit mutex), so the pointer
  // needs no lock after attachment.
  std::unique_ptr<pagestore::Wal> wal_;
  std::shared_ptr<xml::Database> db_ QV_GUARDED_BY(mu_);
  std::unique_ptr<index::DatabaseIndexes> indexes_ QV_GUARDED_BY(mu_);
  std::shared_ptr<const DocumentStore> store_ QV_GUARDED_BY(mu_);
  // Registry-native instruments, maintained under the exclusive lock
  // but readable lock-free (exposition never blocks on a mutation).
  obs::Counter inserts_;   // successful InsertDocument calls
  obs::Counter removes_;   // successful RemoveDocument calls
  obs::Gauge documents_;   // current corpus size

  /// The root Dewey component `name` gets: the replaced document's, or
  /// the next unused one for a new name.
  uint32_t RootComponentFor(const std::string& name) const QV_REQUIRES(mu_);
  /// Registers an already-parsed `doc` under `name`, as InsertDocument
  /// does after parsing: moves it to RootComponentFor(name) and
  /// maintains the indexes.
  void InstallDocument(const std::string& name,
                       std::shared_ptr<xml::Document> doc) QV_REQUIRES(mu_);
};

}  // namespace quickview::storage

#endif  // QUICKVIEW_STORAGE_LIVE_DATABASE_H_
