#include "service/query_service.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "qpt/generate_qpt.h"
#include "xquery/parser.h"

namespace quickview::service {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

QueryService::QueryService(const xml::Database* database,
                           const index::IndexSource* indexes,
                           const storage::DocumentStore* store,
                           const QueryServiceOptions& options)
    : database_(database),
      indexes_(indexes),
      store_(store),
      cache_(options.cache),
      pool_(ResolveThreads(options.threads)) {}

QueryService::QueryService(storage::LiveDatabase* live,
                           const QueryServiceOptions& options)
    : live_(live),
      cache_(options.cache),
      pool_(ResolveThreads(options.threads)) {}

QueryService::QueryService(const storage::ShardSet* shards,
                           const QueryServiceOptions& options)
    : shards_(shards),
      shard_epochs_(shards->size()),
      cache_(options.cache),
      pool_(ResolveThreads(options.threads)) {}

void QueryService::InvalidateShard(int shard) {
  if (shard < 0 || shard >= static_cast<int>(shard_epochs_.size())) return;
  shard_epochs_[static_cast<size_t>(shard)].fetch_add(
      1, std::memory_order_relaxed);
}

Status QueryService::RegisterView(const std::string& name,
                                  const std::string& view_text) {
  // Validate eagerly so a bad view fails registration, not every query.
  QUICKVIEW_ASSIGN_OR_RETURN(xquery::Query parsed,
                             xquery::ParseQuery(view_text));
  // Record which fn:doc() names the view reads, so document mutations
  // can invalidate exactly the views they affect. QPT generation mutates
  // its input (doc -> occurrence names) — `parsed` is a throwaway copy.
  std::vector<std::string> source_docs;
  bool docs_known = false;
  if (Result<std::vector<qpt::Qpt>> qpts = qpt::GenerateQpts(&parsed);
      qpts.ok()) {
    docs_known = true;
    for (const qpt::Qpt& q : *qpts) source_docs.push_back(q.source_doc);
  }
  qv::WriterLock lock(views_mu_);
  RegisteredView& view = views_[name];
  ++view.version;
  view.text = view_text;
  view.source_docs = std::move(source_docs);
  view.docs_known = docs_known;
  return Status::OK();
}

Status QueryService::ApplyMutation(Mutation op, const std::string& name,
                                   const std::string& xml_text,
                                   obs::Counter* counter) {
  if (live_ == nullptr) {
    return Status::InvalidArgument(
        "document mutations require a live-mode QueryService (constructed "
        "over a storage::LiveDatabase)");
  }
  // Bump the data epoch of every view that reads `name` (or whose doc
  // set is unknown): their cache keys change, so stale PDTs can never
  // serve the new corpus state. Other views' entries stay warm. The
  // bump runs as the mutation's post_apply hook — under the SAME
  // exclusive live_->mu() hold as the corpus change (torn reads between
  // corpus and epochs stay impossible), with views_mu_ nested inside it
  // per the documented lock order. With a WAL attached the whole
  // mutation rides its group commit: logged durably first, applied (and
  // epoch-bumped) in sequence order by the commit-group leader.
  auto bump_epochs = [this, &name]() {
    qv::WriterLock views_lock(views_mu_);
    for (auto& [view_name, view] : views_) {
      if (!view.docs_known ||
          std::find(view.source_docs.begin(), view.source_docs.end(), name) !=
              view.source_docs.end()) {
        ++view.data_version;
      }
    }
  };
  Status applied = op == Mutation::kInsert
                       ? live_->CommitInsert(name, xml_text, bump_epochs)
                       : live_->CommitRemove(name, bump_epochs);
  QUICKVIEW_RETURN_IF_ERROR(applied);
  counter->Increment();
  return Status::OK();
}

Status QueryService::InsertDocument(const std::string& name,
                                    const std::string& xml_text) {
  return ApplyMutation(Mutation::kInsert, name, xml_text, &inserts_);
}

Status QueryService::RemoveDocument(const std::string& name) {
  return ApplyMutation(Mutation::kRemove, name, /*xml_text=*/"", &removes_);
}

Result<std::unique_ptr<engine::ResultCursor>> QueryService::OpenSearch(
    const BatchQuery& query) {
  queries_.Increment();
  // Boundary validation, hoisted into the ONE implementation every entry
  // point shares (SearchRequest::Validate): empty keyword list, zero
  // top_k and a nonsense shard hint are caller bugs, rejected with a
  // typed InvalidArgument before any planning. At this boundary the
  // request's `view` carries the registered view NAME (the engine
  // boundary re-validates with the view text later, identically).
  engine::SearchRequest boundary;
  boundary.view = query.view;
  boundary.keywords = query.keywords;
  boundary.options = query.options;
  boundary.shard = query.shard;
  boundary.deadline = query.deadline;
  QUICKVIEW_RETURN_IF_ERROR(boundary.Validate());
  // Keywords are spliced into single-quoted XQuery string literals; a
  // quote would break out of the literal and rewrite the query shape
  // (the serve CLI feeds keywords straight from stdin). The grammar has
  // no escape for quotes inside literals, so reject rather than mangle.
  for (const std::string& keyword : query.keywords) {
    if (keyword.find('\'') != std::string::npos) {
      return Status::InvalidArgument("keyword must not contain \"'\": " +
                                     keyword);
    }
  }
  if (shards_ != nullptr) return PrepareShardedCursor(query);
  // Live mode: hold the corpus lock shared across planning, PDT build
  // and evaluation, so this query sees the corpus entirely before or
  // after any concurrent mutation, never in between; the snapshot lease
  // keeps lazy materialization valid after the lock drops. Static mode:
  // the surface is immutable construction state, no lock exists.
  if (live_ != nullptr) {
    qv::ReaderLock data_lock(live_->mu());
    std::shared_ptr<const storage::DocumentStore> snapshot = live_->store();
    const storage::DocumentStore* store = snapshot.get();
    return PrepareCursor(query, live_->database(), live_->indexes(), store,
                         std::move(snapshot));
  }
  return PrepareCursor(query, database_, indexes_, store_, /*lease=*/nullptr);
}

Result<QueryService::ViewSnapshot> QueryService::SnapshotView(
    const std::string& name) {
  qv::ReaderLock lock(views_mu_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("no view registered as '" + name + "'");
  }
  ViewSnapshot snapshot;
  snapshot.text = it->second.text;
  snapshot.version = it->second.version;
  snapshot.data_version = it->second.data_version;
  return snapshot;
}

std::string QueryService::BaseCacheKey(const std::string& view_name,
                                       const ViewSnapshot& view,
                                       const std::string& signature) {
  // Length-prefix the view name so no name can collide with another
  // name + version suffix; the plan signature is injective on its own.
  // The version pair (registration version '.' data epoch) makes both
  // view replacement and document mutations unreachable-key
  // invalidations: stale entries age out of the LRU, never serve again.
  std::string key = std::to_string(view_name.size());
  key.push_back(':');
  key.append(view_name);
  key.push_back('#');
  key.append(std::to_string(view.version));
  key.push_back('.');
  key.append(std::to_string(view.data_version));
  key.push_back('\x1f');
  key.append(signature);
  return key;
}

Result<std::unique_ptr<engine::ResultCursor>> QueryService::PrepareCursor(
    const BatchQuery& query, const xml::Database* database,
    const index::IndexSource* indexes, const storage::DocumentStore* store,
    std::shared_ptr<const storage::DocumentStore> lease) {
  engine::ViewSearchEngine engine(database, indexes, store);

  // The view (and crucially its data epoch) is read under the SAME
  // corpus-lock hold that captured the surface in OpenSearch — mutations
  // bump the epoch while holding that lock exclusively, so epoch d in
  // the cache key always means "PDTs built from corpus state d". Reading
  // it outside the hold could pair a cached pre-update PreparedQuery
  // with a post-update store snapshot: a torn result no corpus version
  // ever produced. Lock order is live_->mu() -> views_mu_, same as
  // mutations.
  QUICKVIEW_ASSIGN_OR_RETURN(ViewSnapshot view, SnapshotView(query.view));

  // The hit path deliberately re-plans (parse + QPT generation; cost
  // proportional to the query text, never the data) so the cache stays
  // keyed by the canonical plan signature rather than raw input text.
  // If planning ever shows up in warm-path profiles, add a first-level
  // key on (view#version, keywords, connective) in front of this.
  std::string full_query = engine::ComposeKeywordQuery(
      view.text, query.keywords, query.options.conjunctive);
  QUICKVIEW_ASSIGN_OR_RETURN(engine::QueryPlan plan,
                             engine.PlanQuery(full_query));
  std::string key = BaseCacheKey(query.view, view, plan.signature);

  // Open(request, prepared) — the same entry the sharded path uses — so
  // the request's deadline (and caller token) governs PDT build and
  // evaluation here too; a cache miss rides in as a null slot the engine
  // builds itself, under the token.
  engine::SearchRequest request;
  request.view = view.text;
  request.keywords = query.keywords;
  request.options = query.options;
  request.deadline = query.deadline;
  request.cancel = query.cancel;
  request.trace = query.trace;

  std::shared_ptr<const engine::PreparedQuery> prepared = cache_.Get(key);
  const bool cache_hit = prepared != nullptr;
  // The cursor co-owns the PreparedQuery: eviction (or view replacement)
  // only drops the cache's reference, never the open cursor's; in live
  // mode the store-snapshot lease below completes the cursor's snapshot.
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<engine::ResultCursor> cursor,
                             engine.Open(request, {std::move(prepared)}));
  if (!cache_hit) cache_.Put(key, cursor->SharedPrepared(0));
  if (lease != nullptr) cursor->AddLease(std::move(lease));
  return cursor;
}

Result<std::unique_ptr<engine::ResultCursor>>
QueryService::PrepareShardedCursor(const BatchQuery& query) {
  QUICKVIEW_ASSIGN_OR_RETURN(ViewSnapshot view, SnapshotView(query.view));

  engine::ViewSearchEngine engine(engine::ShardContexts(*shards_), &pool_);

  engine::SearchRequest request;
  request.view = view.text;
  request.keywords = query.keywords;
  request.options = query.options;
  request.shard = query.shard;
  request.deadline = query.deadline;
  request.cancel = query.cancel;
  request.trace = query.trace;

  // Plan once on the calling thread for the cache key's signature (each
  // shard task re-plans from the same text inside Open, so every cached
  // PreparedQuery stays self-contained).
  std::string full_query = engine::ComposeKeywordQuery(
      view.text, query.keywords, query.options.conjunctive);
  QUICKVIEW_ASSIGN_OR_RETURN(engine::QueryPlan plan,
                             engine.PlanQuery(full_query));
  const std::string base = BaseCacheKey(query.view, view, plan.signature);

  // Executed shards: all of them, or just the hinted one. An
  // out-of-range hint leaves `selected` empty and lets Open return its
  // typed range error.
  std::vector<size_t> selected;
  if (query.shard < 0) {
    for (size_t i = 0; i < shards_->size(); ++i) selected.push_back(i);
  } else if (query.shard < static_cast<int>(shards_->size())) {
    selected.push_back(static_cast<size_t>(query.shard));
  }

  // Per-shard cache keys: the shared prefix plus "/s<i>#<epoch_i>", so
  // one plan warms one entry per shard and InvalidateShard retires
  // exactly one shard's entries. Hits ride into Open; misses stay null
  // and the engine builds them — in parallel with each other.
  std::vector<std::string> keys;
  std::vector<std::shared_ptr<const engine::PreparedQuery>> prepared;
  keys.reserve(selected.size());
  prepared.reserve(selected.size());
  for (size_t shard : selected) {
    std::string key = base;
    key += "/s";
    key += std::to_string(shard);
    key.push_back('#');
    key += std::to_string(
        shard_epochs_[shard].load(std::memory_order_relaxed));
    prepared.push_back(cache_.Get(key));
    keys.push_back(std::move(key));
  }

  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<engine::ResultCursor> cursor,
                             engine.Open(request, prepared));
  // Backfill the shards the engine had to build, so the next query over
  // them hits. (A concurrent InvalidateShard may have retired a key in
  // the meantime; the Put then lands on an unreachable key and ages out
  // — never serves stale.)
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    if (prepared[slot] == nullptr) {
      cache_.Put(keys[slot], cursor->SharedPrepared(slot));
    }
  }
  return cursor;
}

Result<engine::SearchResponse> QueryService::SearchOne(
    const BatchQuery& query) {
  QUICKVIEW_ASSIGN_OR_RETURN(std::unique_ptr<engine::ResultCursor> cursor,
                             OpenSearch(query));
  Result<engine::SearchResponse> response =
      engine::DrainToResponse(cursor.get());
  // Drained queries feed the service-lifetime stats().engine aggregate.
  if (response.ok()) FoldEngineStats(cursor->stats());
  return response;
}

std::vector<Result<engine::SearchResponse>> QueryService::SearchBatch(
    const std::vector<BatchQuery>& queries) {
  std::vector<Result<engine::SearchResponse>> responses(
      queries.size(), Status::Internal("query not executed"));
  if (queries.empty()) return responses;

  // Per-batch completion barrier, so concurrent batches from different
  // client threads don't wait on each other's tasks. (`done` is guarded
  // by `done_mu`; they are locals captured by reference, which the
  // static analysis cannot express — the explicit while-Wait loop below
  // keeps the protocol obvious instead.)
  qv::Mutex done_mu;
  qv::CondVar done_cv;
  size_t done = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    pool_.Submit([this, &queries, &responses, &done_mu, &done_cv, &done, i] {
      // Exceptions (e.g. bad_alloc from a huge PDT build) become this
      // slot's error; the completion count must advance regardless, or
      // the batch barrier below would wait forever.
      try {
        responses[i] = SearchOne(queries[i]);
      } catch (const std::exception& e) {
        responses[i] = Status::Internal(std::string("query threw: ") +
                                        e.what());
      } catch (...) {
        responses[i] = Status::Internal("query threw a non-std exception");
      }
      qv::MutexLock lock(done_mu);
      if (++done == queries.size()) done_cv.NotifyAll();
    });
  }
  qv::MutexLock lock(done_mu);
  while (done != queries.size()) {
    done_cv.Wait(lock);
  }
  return responses;
}

void QueryService::FoldEngineStats(const engine::EngineStats& stats) {
  qv::MutexLock lock(stats_mu_);
  engine::SearchStats& search = engine_stats_.search;
  search.view_results += stats.search.view_results;
  search.matching_results += stats.search.matching_results;
  search.pdt.ids_processed += stats.search.pdt.ids_processed;
  search.pdt.nodes_emitted += stats.search.pdt.nodes_emitted;
  search.pdt.peak_ct_nodes =
      std::max(search.pdt.peak_ct_nodes, stats.search.pdt.peak_ct_nodes);
  search.pdt.index_probes += stats.search.pdt.index_probes;
  search.pdt.pdt_bytes += stats.search.pdt.pdt_bytes;
  search.store_fetches += stats.search.store_fetches;
  search.store_bytes += stats.search.store_bytes;
  search.pages_read += stats.search.pages_read;
  search.buffer_hits += stats.search.buffer_hits;
  search.view_bytes += stats.search.view_bytes;
  engine_stats_.timings.qpt_ms += stats.timings.qpt_ms;
  engine_stats_.timings.pdt_ms += stats.timings.pdt_ms;
  engine_stats_.timings.eval_ms += stats.timings.eval_ms;
  engine_stats_.timings.post_ms += stats.timings.post_ms;
  for (const engine::ShardStats& s : stats.shards) {
    engine::ShardStats* slot = nullptr;
    for (engine::ShardStats& have : engine_stats_.shards) {
      if (have.shard == s.shard) {
        slot = &have;
        break;
      }
    }
    if (slot == nullptr) {
      engine_stats_.shards.emplace_back();
      slot = &engine_stats_.shards.back();
      slot->shard = s.shard;
    }
    slot->view_results += s.view_results;
    slot->matching_results += s.matching_results;
    slot->store_fetches += s.store_fetches;
    slot->store_bytes += s.store_bytes;
    slot->pages_read += s.pages_read;
    slot->buffer_hits += s.buffer_hits;
    slot->pdt_ms += s.pdt_ms;
    slot->eval_ms += s.eval_ms;
    slot->cancelled = slot->cancelled || s.cancelled;
  }
}

QueryService::Stats QueryService::stats() const {
  Stats out;
  out.queries = queries_.value();
  out.documents_inserted = inserts_.value();
  out.documents_removed = removes_.value();
  out.cache = cache_.stats();
  {
    qv::MutexLock lock(stats_mu_);
    out.engine = engine_stats_;
  }
  // Buffer counters are read live from the pools (not accumulated per
  // query): the attached packed database's pool, or every shard's.
  auto add_pool = [&out](const pagestore::BufferPool& pool) {
    pagestore::BufferPoolStats s = pool.stats();
    out.engine.buffer.hits += s.hits;
    out.engine.buffer.misses += s.misses;
    out.engine.buffer.evictions += s.evictions;
    out.engine.buffer.frames_in_use += s.frames_in_use;
    out.engine.buffer.frame_capacity += pool.frame_budget();
  };
  if (shards_ != nullptr) {
    for (size_t i = 0; i < shards_->size(); ++i) {
      if (shards_->shard(i).packed != nullptr) {
        add_pool(shards_->shard(i).packed->pool());
      }
    }
  } else if (pool_stats_ != nullptr) {
    add_pool(*pool_stats_);
  }
  return out;
}

Status QueryService::RegisterMetrics(obs::MetricsRegistry* registry,
                                     obs::LabelSet labels) const {
  QV_RETURN_IF_ERROR(registry->RegisterCounter("qv_service_queries_total",
                                               labels, &queries_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter(
      "qv_service_document_inserts_total", labels, &inserts_));
  QV_RETURN_IF_ERROR(registry->RegisterCounter(
      "qv_service_document_removes_total", labels, &removes_));
  QV_RETURN_IF_ERROR(cache_.RegisterMetrics(registry, labels));
  QV_RETURN_IF_ERROR(pool_.RegisterMetrics(registry, labels));
  if (live_ != nullptr) {
    QV_RETURN_IF_ERROR(live_->RegisterMetrics(registry, labels));
  }
  // Pools behind a sharded packed corpus register per shard — the label
  // keeps N pools apart under one metric name (and is the worked
  // example of the registry's label-series contract).
  if (shards_ != nullptr) {
    for (size_t i = 0; i < shards_->size(); ++i) {
      if (shards_->shard(i).packed == nullptr) continue;
      obs::LabelSet shard_labels = labels;
      shard_labels.emplace_back("shard", std::to_string(i));
      QV_RETURN_IF_ERROR(shards_->shard(i).packed->pool().RegisterMetrics(
          registry, std::move(shard_labels)));
    }
  } else if (pool_stats_ != nullptr) {
    QV_RETURN_IF_ERROR(pool_stats_->RegisterMetrics(registry, labels));
  }
  return Status::OK();
}

}  // namespace quickview::service
