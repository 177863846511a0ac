#include "storage/live_database.h"

#include <utility>

#include "pagestore/delta_log.h"
#include "xml/parser.h"

namespace quickview::storage {

LiveDatabase::LiveDatabase()
    : db_(std::make_shared<xml::Database>()),
      indexes_(std::make_unique<index::DatabaseIndexes>()),
      store_(std::make_shared<const DocumentStore>(*db_)) {}

LiveDatabase::LiveDatabase(std::shared_ptr<xml::Database> initial)
    : db_(std::move(initial)),
      indexes_(index::BuildDatabaseIndexes(*db_)),
      store_(std::make_shared<const DocumentStore>(*db_)) {
  documents_.Set(static_cast<int64_t>(db_->documents().size()));
}

uint32_t LiveDatabase::RootComponentFor(const std::string& name) const {
  // Replacements keep their root Dewey component so the document's "path
  // ordinal" stays stable across versions; new names get a fresh one.
  const xml::Document* old_doc = db_->GetDocument(name);
  return old_doc != nullptr ? old_doc->root_component()
                            : db_->NextRootComponent();
}

Status LiveDatabase::InsertDocument(const std::string& name,
                                    const std::string& xml_text) {
  // The parse happens before any state changes: a bad document leaves
  // the corpus, the indexes and the published snapshot untouched. Parsing
  // under the final root component leaves InstallDocument no ids to
  // rewrite.
  QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<xml::Document> doc,
                             xml::ParseXml(xml_text, RootComponentFor(name)));
  InstallDocument(name, std::move(doc));
  return Status::OK();
}

void LiveDatabase::InstallDocument(const std::string& name,
                                   std::shared_ptr<xml::Document> doc) {
  doc->SetRootComponent(RootComponentFor(name));
  std::shared_ptr<xml::Document> old_doc = db_->GetDocumentShared(name);
  if (old_doc != nullptr) {
    // In-place incremental maintenance: remove the old version's postings
    // and path entries from the live B+-trees, insert the new version's.
    index::DocumentIndexes* doc_indexes = indexes_->GetMutable(name);
    doc_indexes->RemoveDocument(*old_doc);
    doc_indexes->AddDocument(*doc);
    db_->RemoveDocument(name);
  } else {
    indexes_->Put(name, index::BuildDocumentIndexes(*doc));
  }
  db_->AddDocument(name, std::move(doc));
  store_ = std::make_shared<const DocumentStore>(*db_);
  inserts_.Increment();
  documents_.Set(static_cast<int64_t>(db_->documents().size()));
}

Status LiveDatabase::RemoveDocument(const std::string& name) {
  if (!db_->RemoveDocument(name)) {
    return Status::NotFound("no document named '" + name + "'");
  }
  indexes_->Remove(name);
  store_ = std::make_shared<const DocumentStore>(*db_);
  removes_.Increment();
  documents_.Set(static_cast<int64_t>(db_->documents().size()));
  return Status::OK();
}

Status LiveDatabase::OpenWal(const std::string& path,
                             const pagestore::WalOptions& options) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("a WAL is already attached at " +
                                   wal_->path());
  }
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<pagestore::Wal> wal,
                             pagestore::Wal::Open(path, options));
  // Replay the committed history into the corpus before accepting new
  // traffic. A tombstone for an absent name is a no-op (see
  // CommitRemove's race note), anything else that fails to apply is a
  // real error — the log would not match the corpus it claims to
  // describe.
  qv::WriterLock lock(mu_);
  for (const std::string& payload : wal->replay().payloads) {
    QUICKVIEW_ASSIGN_OR_RETURN(pagestore::DeltaRecord record,
                               pagestore::DecodeDeltaPayload(payload));
    if (record.tombstone) {
      Status removed = RemoveDocument(record.name);
      if (!removed.ok() && removed.code() != StatusCode::kNotFound) {
        return removed;
      }
    } else {
      QUICKVIEW_RETURN_IF_ERROR(InsertDocument(record.name, record.xml));
    }
  }
  wal_ = std::move(wal);
  return Status::OK();
}

Status LiveDatabase::CommitInsert(const std::string& name,
                                  const std::string& xml_text,
                                  const std::function<void()>& post_apply) {
  if (wal_ == nullptr) {
    qv::WriterLock lock(mu_);
    QUICKVIEW_RETURN_IF_ERROR(InsertDocument(name, xml_text));
    if (post_apply) post_apply();
    return Status::OK();
  }
  if (name.empty()) {
    return Status::InvalidArgument("document name must not be empty");
  }
  // Parse once, before logging (and before joining a commit group): a
  // record that cannot replay would poison recovery, and rejecting it
  // here keeps the failure out of the WAL entirely. The apply step
  // installs this parsed document; its root component is decided there,
  // under the exclusive lock.
  QUICKVIEW_ASSIGN_OR_RETURN(std::shared_ptr<xml::Document> doc,
                             xml::ParseXml(xml_text));
  pagestore::DeltaRecord record;
  record.name = name;
  record.xml = xml_text;
  // The apply callback runs on the commit-group leader's thread, after
  // the record is durable, in sequence order — so WAL order and apply
  // order agree and replay reproduces exactly this corpus.
  QUICKVIEW_ASSIGN_OR_RETURN(
      uint64_t seq,
      wal_->Append(pagestore::EncodeDeltaPayload(record), [&]() {
        qv::WriterLock lock(mu_);
        InstallDocument(name, std::move(doc));
        if (post_apply) post_apply();
        return Status::OK();
      }));
  (void)seq;
  return Status::OK();
}

Status LiveDatabase::CommitRemove(const std::string& name,
                                  const std::function<void()>& post_apply) {
  if (wal_ == nullptr) {
    qv::WriterLock lock(mu_);
    Status removed = RemoveDocument(name);
    if (removed.ok() && post_apply) post_apply();
    return removed;
  }
  {
    // Pre-check so a remove of an absent name fails without logging a
    // tombstone. Two racing removers may both pass and both log; the
    // loser's apply returns NotFound (its tombstone replays as a no-op).
    qv::ReaderLock lock(mu_);
    if (db_->GetDocumentShared(name) == nullptr) {
      return Status::NotFound("no document named '" + name + "'");
    }
  }
  pagestore::DeltaRecord record;
  record.tombstone = true;
  record.name = name;
  QUICKVIEW_ASSIGN_OR_RETURN(
      uint64_t seq,
      wal_->Append(pagestore::EncodeDeltaPayload(record), [&]() {
        qv::WriterLock lock(mu_);
        Status removed = RemoveDocument(name);
        if (removed.ok() && post_apply) post_apply();
        return removed;
      }));
  (void)seq;
  return Status::OK();
}

Status LiveDatabase::RegisterMetrics(obs::MetricsRegistry* registry,
                                     obs::LabelSet labels) const {
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_livedb_inserts_total",
                                               labels, &inserts_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_livedb_removes_total",
                                               labels, &removes_));
  QV_RETURN_IF_ERROR(
      registry->RegisterGauge("qv_livedb_documents", labels, &documents_));
  if (wal_ != nullptr) {
    return wal_->RegisterMetrics(registry, std::move(labels));
  }
  return Status::OK();
}

std::vector<std::string> LiveDatabase::document_names() const {
  std::vector<std::string> out;
  out.reserve(db_->documents().size());
  for (const auto& [name, doc] : db_->documents()) out.push_back(name);
  return out;
}

}  // namespace quickview::storage
