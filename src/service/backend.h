// Backend: the one way to open a corpus for querying. A BackendSpec holds
// the source flags quickview_cli and quickview_server share; OpenBackend
// checks that they agree with each other, opens or builds everything a
// query needs, and returns a Backend that owns it all.
//
// Sources:
//   empty / demo     the built-in books/reviews corpus (in memory);
//   <dir>            a database directory (storage/persistence.h): the
//                    documents load and their indexes are built at open;
//   <file>.qvpack    a packed database (pagestore/packed_db.h) read
//                    through a buffer pool of `frames` pages, with its
//                    delta side log overlaid;
//   <file>.qvset     a packed shard set (storage/shard_set.h), the frame
//                    budget split across the shards.
// An in-memory source can instead be partitioned into `shards` shards
// (co-located by `colocate`), or served `live` — mutable through
// QueryService::InsertDocument/RemoveDocument, durably so with a `wal`.
//
// Contradictory specs are InvalidArgument, never silently narrowed:
// `demo` with a source, `shards` or `live` over a packed source, `live`
// with `shards`, `wal` without `live`, `colocate` without `shards`.
#ifndef QUICKVIEW_SERVICE_BACKEND_H_
#define QUICKVIEW_SERVICE_BACKEND_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pagestore/packed_db.h"
#include "service/query_service.h"
#include "storage/document_store.h"
#include "storage/live_database.h"
#include "storage/shard_set.h"
#include "xml/dom.h"

namespace quickview::service {

struct BackendSpec {
  std::string source;  // see the file comment; empty = built-in corpus
  bool demo = false;   // the built-in corpus, named explicitly
  size_t frames = 256;  // buffer-pool frame budget of packed sources
  int shards = 0;       // 0 = unsharded; N >= 1 partitions in memory
  std::string colocate;  // join-key tag for shard co-location
  bool live = false;     // mutable in-memory corpus
  std::string wal;       // write-ahead log path; requires live
};

/// True for paths that name a packed single-file database.
bool IsPackPath(const std::string& path);
/// True for paths that name a packed shard-set manifest.
bool IsShardSetPath(const std::string& path);

/// An opened corpus. Exactly one serving mode is set: `shards`, `live`,
/// or the unsharded static triple (`db` + `indexes` in memory, or
/// `packed`; `store` over either).
struct Backend {
  /// In-memory sources: the corpus. In live mode this is the initial
  /// corpus the LiveDatabase adopted — query through `live` instead.
  std::shared_ptr<xml::Database> db;
  std::unique_ptr<index::DatabaseIndexes> indexes;  // unsharded in-memory
  std::shared_ptr<pagestore::PackedDb> packed;      // .qvpack source
  std::unique_ptr<storage::DocumentStore> store;    // unsharded static
  std::unique_ptr<storage::ShardSet> shards;        // .qvset or --shards
  std::unique_ptr<storage::LiveDatabase> live;      // live mode
  /// What was opened, one line per fact (page counts, delta log, WAL
  /// replay), for the tools to print. Empty for a plain in-memory open.
  std::string summary;

  /// Engine contexts in corpus order: one per shard, or the single
  /// unsharded triple. Static modes only — a live corpus changes under
  /// its lock and is queried through a service.
  std::vector<engine::ShardContext> ShardContexts() const;

  /// A QueryService over this corpus in the matching mode, with a packed
  /// database's buffer pool attached so stats() reports it. The backend
  /// must outlive the service. In live mode the service becomes the
  /// corpus's only writer: make one service per live backend.
  std::unique_ptr<QueryService> NewService(
      const QueryServiceOptions& options = {});
};

/// Validates `spec` (see the file comment) and opens its source.
Result<Backend> OpenBackend(const BackendSpec& spec);

}  // namespace quickview::service

#endif  // QUICKVIEW_SERVICE_BACKEND_H_
