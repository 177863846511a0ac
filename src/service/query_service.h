// QueryService: the multi-query front end over ViewSearchEngine. Views
// are registered once by name; batches of keyword queries against those
// views execute concurrently on a fixed thread pool, sharing one
// PreparedQueryCache so identical plans (same view, same QPT signature,
// same keywords) reuse already-generated PDTs instead of rebuilding them.
//
// The result surface is pull-based: OpenSearch returns a session-handle
// ResultCursor whose FetchNext(n) materializes hits lazily (pagination
// without re-running the pipeline). The cursor pins its PreparedQuery
// via shared_ptr, so cache eviction and view re-registration cannot
// invalidate an open cursor. SearchOne / SearchBatch are thin wrappers
// that drain a cursor into the classic SearchResponse.
//
// Threading model:
//  - in the static modes (raw database/indexes/store pointers, packed
//    db) those structures are immutable after construction and shared by
//    every worker;
//  - in live mode (constructed over a storage::LiveDatabase) queries
//    plan, build PDTs and evaluate under the shared side of the live
//    database's own reader-writer lock (LiveDatabase::mu()), while
//    InsertDocument/RemoveDocument mutate under the exclusive side, so a
//    query sees the corpus entirely before or entirely after any update
//    — never in between. Each mutation bumps a
//    data epoch on exactly the views that reference the mutated
//    document; the epoch is part of the PreparedQueryCache key, so only
//    those views' cached PDTs are invalidated. Cursors opened before an
//    update pin their PreparedQuery, evaluator arena AND the
//    DocumentStore snapshot they were opened against (ResultCursor
//    leases), so in-flight readers are snapshot-isolated;
//  - per-query state (evaluator, scoring, materialization target) lives
//    on the worker's stack;
//  - cached PreparedQuery bundles are immutable and reference-counted,
//    so eviction never invalidates an executing query.
// Results are deterministic: a batch returns, per query, exactly the
// response a serial ViewSearchEngine::Execute call would produce
// against the same corpus state (timings aside).
#ifndef QUICKVIEW_SERVICE_QUERY_SERVICE_H_
#define QUICKVIEW_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/sync.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "pagestore/buffer_pool.h"
#include "service/prepared_query_cache.h"
#include "common/thread_pool.h"
#include "storage/document_store.h"
#include "storage/live_database.h"
#include "storage/shard_set.h"
#include "xml/dom.h"

namespace quickview::service {

struct QueryServiceOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int threads = 0;
  PreparedQueryCache::Options cache;
};

/// One keyword query of a batch, against a registered view.
struct BatchQuery {
  std::string view;  // registered view name
  std::vector<std::string> keywords;
  engine::SearchOptions options;
  /// Shard routing hint, sharded services only: -1 searches every shard,
  /// i >= 0 restricts to shard i (see SearchRequest::shard for the
  /// ranking caveat).
  int shard = -1;
  /// Wall-clock budget measured from OpenSearch, forwarded into
  /// SearchRequest::deadline: expiry unwinds in-flight shard work and the
  /// query fails DeadlineExceeded.
  std::optional<std::chrono::milliseconds> deadline = std::nullopt;
  /// Caller-owned cancellation token, forwarded into
  /// SearchRequest::cancel (the server's per-request handle; see there
  /// for semantics). Left null, the engine makes a private one.
  std::shared_ptr<CancellationToken> cancel = nullptr;
  /// Optional per-request trace, forwarded into SearchRequest::trace
  /// (see there for the span tree the engine records). Null = off.
  std::shared_ptr<obs::Trace> trace = nullptr;
};

class QueryService {
 public:
  struct Stats {  // lint:allow(adhoc-stats) snapshot view; service registers obs:: instruments
    uint64_t queries = 0;
    /// Successful live-mode mutations (zero in the static modes).
    uint64_t documents_inserted = 0;
    uint64_t documents_removed = 0;
    PreparedQueryCache::Stats cache;
    /// The unified engine view (same shape ResultCursor::stats()
    /// returns): search counters, module timings and per-shard counters
    /// accumulated over every DRAINED query (SearchOne / SearchBatch —
    /// cursors handed out by OpenSearch fold in only if drained through
    /// DrainToResponse by SearchOne), plus live buffer-pool counters of
    /// the attached packed database or of every shard's pool (all zero
    /// over in-memory structures).
    engine::EngineStats engine;
  };

  /// Static mode: all three structures must outlive the service and are
  /// treated as immutable (see the threading model above). `indexes` is
  /// any IndexSource — DatabaseIndexes or a pagestore::PackedDb;
  /// `database` may be nullptr in the packed case (base documents live
  /// in node-record pages, reached through the store).
  QueryService(const xml::Database* database,
               const index::IndexSource* indexes,
               const storage::DocumentStore* store,
               const QueryServiceOptions& options = {});

  /// Live mode: queries and document mutations interleave against `live`
  /// (which must outlive the service) under the service's reader-writer
  /// lock. The service is the live database's only synchronization —
  /// don't mutate it directly while the service exists.
  explicit QueryService(storage::LiveDatabase* live,
                        const QueryServiceOptions& options = {});

  /// Sharded static mode: queries fan out over every shard of `shards`
  /// (which must outlive the service and is treated as immutable) on the
  /// service's thread pool, and the merged response is byte-identical to
  /// the unsharded one. PDTs are cached PER SHARD — the cache key gains
  /// a "/s<i>#<epoch>" suffix — so a corpus of N shards warms N entries
  /// per plan and InvalidateShard can drop exactly one shard's entries.
  explicit QueryService(const storage::ShardSet* shards,
                        const QueryServiceOptions& options = {});

  /// Sharded mode only: bumps shard `shard`'s cache epoch, making every
  /// cached PDT of that shard unreachable (the per-shard analog of live
  /// mode's per-view data epochs — stale entries age out of the LRU,
  /// never serve again). No-op on an unsharded service or an
  /// out-of-range shard.
  void InvalidateShard(int shard);

  /// Live mode only: inserts (or replaces) the named document and
  /// invalidates cached PDTs of exactly the views that reference it.
  /// In-flight cursors keep their snapshot. InvalidArgument on a
  /// static-mode service.
  Status InsertDocument(const std::string& name, const std::string& xml_text)
      QV_EXCLUDES(views_mu_);

  /// Live mode only: removes the named document. Queries against views
  /// referencing it then fail per-slot with NotFound until it returns.
  Status RemoveDocument(const std::string& name) QV_EXCLUDES(views_mu_);

  /// Attaches the buffer pool whose counters stats() should report —
  /// call once, right after construction, when serving a packed db. The
  /// pool must outlive the service.
  void AttachBufferPool(const pagestore::BufferPool* pool) {
    pool_stats_ = pool;
  }

  /// Registers (or replaces) a view under `name`. Replacing a view bumps
  /// its cache-key version, so stale PDTs can never serve the new text.
  /// Not intended to race with in-flight batches against the same name.
  Status RegisterView(const std::string& name, const std::string& view_text)
      QV_EXCLUDES(views_mu_);

  /// Opens a cursor over the query's ranked result stream on the calling
  /// thread: plan -> cached (or fresh) PDTs -> evaluate + score. No hit
  /// is materialized until the caller's first FetchNext. The cursor is a
  /// self-contained session handle — it keeps the underlying
  /// PreparedQuery alive, so it stays valid across cache eviction, view
  /// re-registration, and other queries; the service itself (and its
  /// database/index/store) must merely outlive it. The cursor yields at
  /// most query.options.top_k hits.
  Result<std::unique_ptr<engine::ResultCursor>> OpenSearch(
      const BatchQuery& query) QV_EXCLUDES(views_mu_);

  /// Executes the whole batch on the pool; response i answers query i.
  /// Individual failures are per-slot errors, not batch failures.
  /// Implemented as one drained cursor per query.
  std::vector<Result<engine::SearchResponse>> SearchBatch(
      const std::vector<BatchQuery>& queries);

  /// Executes one query on the calling thread (used by the batch workers;
  /// public so callers can bypass the pool): OpenSearch + drain.
  Result<engine::SearchResponse> SearchOne(const BatchQuery& query);

  /// Drops all cached PDTs (cold-cache measurements, corpus swaps).
  void ClearCache() { cache_.Clear(); }

  Stats stats() const;
  int threads() const { return pool_.thread_count(); }

  /// Registers the service's instruments (qv_service_*) plus those of
  /// its PDT cache and thread pool into `registry`. Call once, after
  /// construction; the service must outlive the registry reads.
  Status RegisterMetrics(obs::MetricsRegistry* registry,
                         obs::LabelSet labels = {}) const;

 private:
  struct RegisteredView {
    std::string text;
    uint64_t version = 0;  // bumped by RegisterView; part of the cache key
    /// Bumped by InsertDocument/RemoveDocument of a referenced document;
    /// the other half of the cache key's version pair.
    uint64_t data_version = 0;
    /// fn:doc() names the view reads, extracted at registration. When
    /// extraction fails (view outside the QPT subset) `docs_known` stays
    /// false and every mutation conservatively bumps the view.
    std::vector<std::string> source_docs;
    bool docs_known = false;
  };

  enum class Mutation { kInsert, kRemove };

  /// Shared body of both mutation entry points: applies the insert or
  /// remove under the live database's exclusive lock; on success the
  /// affected views' data epochs bump (under the same exclusive hold, so
  /// epoch d in a cache key always means "built from corpus state d")
  /// and `counter` advances.
  Status ApplyMutation(Mutation op, const std::string& name,
                       const std::string& xml_text, obs::Counter* counter);

  /// The registered view's text and version pair, read under views_mu_.
  struct ViewSnapshot {
    std::string text;
    uint64_t version = 0;
    uint64_t data_version = 0;
  };
  Result<ViewSnapshot> SnapshotView(const std::string& name)
      QV_EXCLUDES(views_mu_);

  /// The shard-independent cache key prefix: length-prefixed view name,
  /// version pair, plan signature (see PrepareCursor for why each part
  /// is there). Sharded keys append "/s<i>#<epoch_i>".
  static std::string BaseCacheKey(const std::string& view_name,
                                  const ViewSnapshot& view,
                                  const std::string& signature);

  /// The tail of OpenSearch once the corpus surface is fixed: plan,
  /// fetch-or-build PDTs, open the cursor. In live mode the caller holds
  /// the live database's shared lock across this call and passes the
  /// captured surface in (`lease` pins the store snapshot beyond the
  /// lock); in static mode the surface is the immutable construction
  /// state and no lock is involved.
  Result<std::unique_ptr<engine::ResultCursor>> PrepareCursor(
      const BatchQuery& query, const xml::Database* database,
      const index::IndexSource* indexes, const storage::DocumentStore* store,
      std::shared_ptr<const storage::DocumentStore> lease)
      QV_EXCLUDES(views_mu_);

  /// Sharded OpenSearch tail: per-shard cache lookups, one
  /// engine.Open(request, prepared) fan-out on the pool, then cache
  /// fills for the shards the engine had to build.
  Result<std::unique_ptr<engine::ResultCursor>> PrepareShardedCursor(
      const BatchQuery& query) QV_EXCLUDES(views_mu_);

  /// Folds one drained cursor's EngineStats into the service-lifetime
  /// accumulator behind stats().engine.
  void FoldEngineStats(const engine::EngineStats& stats)
      QV_EXCLUDES(stats_mu_);

  // Static-mode pointers; in live mode these are re-read from live_
  // under its lock on every query.
  const xml::Database* database_ = nullptr;
  const index::IndexSource* indexes_ = nullptr;
  const storage::DocumentStore* store_ = nullptr;
  storage::LiveDatabase* live_ = nullptr;
  const storage::ShardSet* shards_ = nullptr;
  const pagestore::BufferPool* pool_stats_ = nullptr;
  /// Sharded mode: shard i's cache epoch, bumped by InvalidateShard.
  std::vector<std::atomic<uint64_t>> shard_epochs_;
  /// Cumulative EngineStats over drained queries (see Stats::engine).
  mutable qv::Mutex stats_mu_;
  engine::EngineStats engine_stats_ QV_GUARDED_BY(stats_mu_);
  /// Lock order: live_->mu() first, views_mu_ nested inside it (both
  /// PrepareCursor and ApplyMutation) — never take live_->mu() while
  /// holding views_mu_.
  mutable qv::SharedMutex views_mu_;
  std::map<std::string, RegisteredView> views_ QV_GUARDED_BY(views_mu_);
  PreparedQueryCache cache_;
  // Registry-native counters (stats() is a thin view over them).
  obs::Counter queries_;
  obs::Counter inserts_;
  obs::Counter removes_;
  ThreadPool pool_;  // last: workers must stop before members above die
};

}  // namespace quickview::service

#endif  // QUICKVIEW_SERVICE_QUERY_SERVICE_H_
