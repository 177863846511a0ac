#include "service/backend.h"

#include <cassert>
#include <string_view>
#include <utility>

#include "storage/persistence.h"
#include "workload/bookrev_generator.h"

namespace quickview::service {

namespace {

bool HasSuffix(const std::string& path, std::string_view suffix) {
  return path.size() > suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Status ValidateSpec(const BackendSpec& spec) {
  const bool packed = IsPackPath(spec.source) || IsShardSetPath(spec.source);
  if (spec.demo && !spec.source.empty()) {
    return Status::InvalidArgument("--demo names the built-in corpus; it "
                                   "cannot be combined with the source " +
                                   spec.source);
  }
  if (spec.shards < 0) {
    return Status::InvalidArgument("--shards must be at least 1");
  }
  if (!spec.wal.empty() && !spec.live) {
    return Status::InvalidArgument("--wal requires --live");
  }
  if (!spec.colocate.empty() && spec.shards == 0) {
    return Status::InvalidArgument("--colocate requires --shards");
  }
  if (packed && spec.shards > 0) {
    return Status::InvalidArgument(
        "--shards partitions an in-memory corpus; " + spec.source +
        " is already packed (pack --shards N writes a .qvset)");
  }
  if (packed && spec.live) {
    return Status::InvalidArgument("--live needs an in-memory corpus, not " +
                                   spec.source);
  }
  if (spec.live && spec.shards > 0) {
    return Status::InvalidArgument(
        "--live and --shards cannot be combined: a live corpus is not "
        "partitioned");
  }
  return Status::OK();
}

}  // namespace

bool IsPackPath(const std::string& path) { return HasSuffix(path, ".qvpack"); }

bool IsShardSetPath(const std::string& path) {
  return HasSuffix(path, ".qvset");
}

std::vector<engine::ShardContext> Backend::ShardContexts() const {
  assert(live == nullptr);
  if (shards != nullptr) return engine::ShardContexts(*shards);
  const index::IndexSource* source =
      packed != nullptr ? static_cast<const index::IndexSource*>(packed.get())
                        : indexes.get();
  return {engine::ShardContext{db.get(), source, store.get()}};
}

std::unique_ptr<QueryService> Backend::NewService(
    const QueryServiceOptions& options) {
  if (live != nullptr) {
    return std::make_unique<QueryService>(live.get(), options);
  }
  if (shards != nullptr) {
    return std::make_unique<QueryService>(shards.get(), options);
  }
  engine::ShardContext corpus = ShardContexts()[0];
  auto service = std::make_unique<QueryService>(
      corpus.database, corpus.indexes, corpus.store, options);
  if (packed != nullptr) service->AttachBufferPool(&packed->pool());
  return service;
}

Result<Backend> OpenBackend(const BackendSpec& spec) {
  QUICKVIEW_RETURN_IF_ERROR(ValidateSpec(spec));
  Backend backend;

  if (IsShardSetPath(spec.source)) {
    QUICKVIEW_ASSIGN_OR_RETURN(
        storage::ShardSet set,
        storage::ShardSet::OpenPacked(spec.source, spec.frames));
    backend.shards = std::make_unique<storage::ShardSet>(std::move(set));
    backend.summary = "opened " + spec.source + ": " +
                      std::to_string(backend.shards->size()) + " shards, " +
                      std::to_string(spec.frames) + "-frame pool total\n";
    return backend;
  }

  if (IsPackPath(spec.source)) {
    pagestore::BufferPoolOptions pool;
    pool.frames = spec.frames;
    QUICKVIEW_ASSIGN_OR_RETURN(backend.packed,
                               pagestore::PackedDb::Open(spec.source, pool));
    backend.store = std::make_unique<storage::DocumentStore>(backend.packed);
    backend.summary =
        "opened " + spec.source + ": " +
        std::to_string(backend.packed->file().page_count()) + " pages, " +
        std::to_string(backend.packed->document_names().size()) +
        " documents, " + std::to_string(spec.frames) + "-frame pool\n";
    const pagestore::PackedDb::DeltaStats& delta =
        backend.packed->delta_stats();
    if (delta.inserts + delta.tombstones != 0) {
      backend.summary +=
          "delta log: " + std::to_string(delta.inserts) + " inserts, " +
          std::to_string(delta.tombstones) + " tombstones applied (" +
          std::to_string(delta.overlay_documents) + " overlay documents, " +
          std::to_string(delta.masked_base_documents) +
          " packed documents masked)\n";
    }
    return backend;
  }

  if (spec.source.empty()) {
    backend.db = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
  } else {
    QUICKVIEW_ASSIGN_OR_RETURN(backend.db, storage::LoadDatabase(spec.source));
  }

  if (spec.live) {
    backend.live = std::make_unique<storage::LiveDatabase>(backend.db);
    if (!spec.wal.empty()) {
      QUICKVIEW_RETURN_IF_ERROR(backend.live->OpenWal(spec.wal));
      const pagestore::WalReplay& replay = backend.live->wal()->replay();
      backend.summary =
          "wal " + spec.wal + ": replayed " +
          std::to_string(replay.payloads.size()) + " committed records" +
          (replay.tail_truncated ? " (torn tail truncated)" : "") + "\n";
    }
    backend.summary += "live corpus: " +
                       std::to_string(backend.db->documents().size()) +
                       " documents (Insert/Remove enabled" +
                       (spec.wal.empty() ? "" : ", durable") + ")\n";
    return backend;
  }

  if (spec.shards > 0) {
    storage::ShardingSpec sharding;
    sharding.shards = spec.shards;
    sharding.colocate_tag = spec.colocate;
    QUICKVIEW_ASSIGN_OR_RETURN(
        storage::ShardSet set,
        storage::ShardSet::Partition(*backend.db, sharding));
    backend.shards = std::make_unique<storage::ShardSet>(std::move(set));
    backend.summary =
        "partitioned corpus into " + std::to_string(spec.shards) + " shards" +
        (spec.colocate.empty() ? ""
                               : " (colocated by <" + spec.colocate + ">)") +
        "\n";
    return backend;
  }

  backend.indexes = index::BuildDatabaseIndexes(*backend.db);
  backend.store = std::make_unique<storage::DocumentStore>(*backend.db);
  return backend;
}

}  // namespace quickview::service
