// quickview command-line interface.
//
//   quickview_cli index <xml-file>... --out <db-dir>
//       Parse the XML files and write them as a database directory (a
//       manifest plus one file per document). Indexes are not stored
//       there: every command that opens the directory builds them, and
//       `pack` persists them in a .qvpack file.
//   quickview_cli search <db-dir> --view <file> --keywords k1,k2 [--top N]
//       [--any]
//       Ranked keyword search over the virtual view (conjunctive by
//       default; --any = disjunctive).
//   quickview_cli basesearch <db-dir> --keywords k1,k2 [--top N] [--any]
//       Keyword search directly over the base documents.
//   quickview_cli demo
//       Generate the paper's books/reviews example and run its Fig 2
//       query end to end.
//   quickview_cli pack <db-dir> <file.qvpack>   (or: pack --demo <file>)
//       Pack a database directory (or the built-in demo corpus) plus
//       its indices into a single paged .qvpack file:
//       node-record pages, B-tree-node pages and posting runs that
//       serve/page read lazily through a buffer pool.
//       With --shards N (output <file.qvset>) the corpus is partitioned
//       into N shards — one .qvpack each plus a .qvset manifest —
//       co-locating joined subtrees by --colocate <tag> (e.g. isbn).
//   quickview_cli serve <db-dir>|<db.qvpack>|<db.qvset> --view <file>
//       [--threads N]
//       [--top N] [--any] [--repeat R] [--page N] [--frames N]
//       [--shards N] [--colocate tag] [--demo-view] [--deadline-ms N]
//       [--trace]
//       (--deadline-ms bounds each query's wall clock; expiry fails the
//       query DeadlineExceeded through the engine's cancellation token)
//       (--trace runs every query under an obs::Trace and prints each
//       span-tree breakdown — plan/build_pdts/evaluate per shard, merge,
//       materialize — after the result line)
//       (or: quickview_cli serve --demo)
//       Batch mode: read one keyword query per stdin line (comma-
//       separated keywords), execute the whole batch concurrently on a
//       QueryService thread pool with PDT caching, print ranked matches
//       plus throughput and cache statistics. With --page N each query
//       instead streams its hits through a ResultCursor in pages of N,
//       printing per-page store-fetch counts. Over a .qvpack file the
//       corpus stays on disk: queries pull only the pages they touch
//       (--frames bounds the buffer pool; a storage/buffer-pool stats
//       block prints at the end). Over a .qvset shard set — or with
//       --shards N over an in-memory corpus — every query fans out
//       across the shards and merges lazily; responses are
//       byte-identical to the unsharded run.
//   quickview_cli page [<db.qvpack>] [--keywords k1,k2] [--page N]
//       [--top N] [--any] [--frames N] [--demo-view]
//       Cursor-lifecycle demo on the built-in corpus (or over a packed
//       db): Open -> FetchNext page by page, showing that store fetches
//       (the only base-data access) accrue per page instead of up
//       front — with a packed db, so do page reads.
//   quickview_cli append <db.qvpack> <name> <xml-file>
//       Append an inserted (or replaced) document to the pack's delta
//       side log; the next open overlays it over the packed corpus.
//   quickview_cli tombstone <db.qvpack> <name>
//       Append a deletion record for <name> to the delta side log.
//   quickview_cli compact <in.qvpack> <out.qvpack>
//       Fold <in>'s delta log into a fresh pack: byte-identical to
//       packing the surviving corpus directly, with no side log.
//   quickview_cli wal-dump <log>
//       Print every committed record of a write-ahead log (a pack's
//       .delta side log or a server --wal file): sequence number, type
//       (insert/tombstone), document name and payload size — plus
//       whether recovery dropped a torn tail. Read-only: the log file
//       is not modified, even when torn.
//
// Every command that reads a corpus opens it through service::OpenBackend,
// so the source flags (--demo, --frames, --shards, --colocate) mean what
// they mean in quickview_server, and contradictory ones fail: --demo with
// a source, --shards over a packed source, --colocate without --shards.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "engine/base_search.h"
#include "engine/result_cursor.h"
#include "engine/view_search_engine.h"
#include "obs/trace.h"
#include "pagestore/delta_log.h"
#include "pagestore/pack.h"
#include "pagestore/shard_pack.h"
#include "service/backend.h"
#include "service/query_service.h"
#include "storage/persistence.h"
#include "tool_common.h"
#include "xml/parser.h"

namespace {

using namespace quickview;
using tools::Fail;
using tools::ParseCount;
using tools::ReadFile;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  quickview_cli index <xml-file>... --out <db-dir>\n"
               "  quickview_cli search <db-dir> --view <file> "
               "--keywords k1,k2 [--top N] [--any]\n"
               "  quickview_cli basesearch <db-dir> --keywords k1,k2 "
               "[--top N] [--any]\n"
               "  quickview_cli demo\n"
               "  quickview_cli pack <db-dir>|--demo <file.qvpack>\n"
               "  quickview_cli pack <db-dir>|--demo <file.qvset> "
               "--shards N [--colocate tag]\n"
               "  quickview_cli serve <db-dir>|<db.qvpack>|<db.qvset>|--demo "
               "--view <file>|--demo-view [--threads N] [--top N] [--any] "
               "[--repeat R] [--page N] [--frames N] [--shards N] "
               "[--colocate tag] [--deadline-ms N] [--trace]\n"
               "    (keyword queries on stdin, one comma-separated "
               "list per line)\n"
               "  quickview_cli page [<db.qvpack>|<db.qvset>] "
               "[--keywords k1,k2] [--page N] [--top N] [--any] [--frames N] "
               "[--shards N] [--demo-view] [--deadline-ms N]\n"
               "  quickview_cli append <db.qvpack> <name> <xml-file>\n"
               "  quickview_cli tombstone <db.qvpack> <name>\n"
               "  quickview_cli compact <in.qvpack> <out.qvpack>\n"
               "  quickview_cli wal-dump <log>\n");
  return 2;
}

struct Flags {
  std::vector<std::string> positional;
  /// Source flags (--demo, --frames, --shards, --colocate); the source
  /// path itself is positional (see CorpusSpec).
  service::BackendSpec corpus;
  std::string out;
  std::string view;
  std::vector<std::string> keywords;
  size_t top_k = 10;
  bool any = false;
  int threads = 0;  // 0 = hardware concurrency
  int repeat = 1;   // serve: replicate the stdin batch N times
  size_t page = 0;  // cursor page size; 0 = whole-batch responses
  long long deadline_ms = 0;  // per-query deadline; 0 = none
  bool demo_view = false;  // use the built-in books/reviews view text
  bool trace = false;      // serve: print per-query span-tree breakdowns
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->out = v;
    } else if (arg == "--view") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->view = v;
    } else if (arg == "--keywords") {
      const char* v = next();
      if (v == nullptr) return false;
      for (std::string_view piece : SplitString(v, ',')) {
        if (!piece.empty()) {
          flags->keywords.push_back(AsciiToLower(piece));
        }
      }
    } else if (arg == "--top") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 1000000, &value)) return false;
      flags->top_k = static_cast<size_t>(value);
    } else if (arg == "--any") {
      flags->any = true;
    } else if (arg == "--demo") {
      flags->corpus.demo = true;
    } else if (arg == "--threads") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 4096, &value)) return false;
      flags->threads = static_cast<int>(value);
    } else if (arg == "--repeat") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 1000000, &value)) return false;
      flags->repeat = std::max(1, static_cast<int>(value));
    } else if (arg == "--page") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 1000000, &value)) return false;
      flags->page = static_cast<size_t>(value);
    } else if (arg == "--frames") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 1 << 24, &value) || value == 0) return false;
      flags->corpus.frames = static_cast<size_t>(value);
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (!ParseCount(v, 1 << 30, &flags->deadline_ms)) return false;
    } else if (arg == "--trace") {
      flags->trace = true;
    } else if (arg == "--demo-view") {
      flags->demo_view = true;
    } else if (arg == "--shards") {
      const char* v = next();
      long long value = 0;
      if (!ParseCount(v, 4096, &value) || value == 0) return false;
      flags->corpus.shards = static_cast<int>(value);
    } else if (arg == "--colocate") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->corpus.colocate = v;
    } else {
      flags->positional.push_back(std::move(arg));
    }
  }
  return true;
}

std::string BaseName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// The corpus a command reads: the source flags, with the first
/// positional argument (when present) as the source path.
service::BackendSpec CorpusSpec(const Flags& flags) {
  service::BackendSpec spec = flags.corpus;
  if (!flags.positional.empty()) spec.source = flags.positional[0];
  return spec;
}

/// service::OpenBackend, printing what it opened.
Result<service::Backend> OpenCorpus(const service::BackendSpec& spec) {
  QUICKVIEW_ASSIGN_OR_RETURN(service::Backend backend,
                             service::OpenBackend(spec));
  std::fputs(backend.summary.c_str(), stdout);
  return backend;
}

int CmdIndex(const Flags& flags) {
  if (flags.positional.empty() || flags.out.empty()) return Usage();
  // A document is named by its file's basename (the name fn:doc() uses),
  // so two inputs sharing one would leave a single document behind.
  std::map<std::string, std::string> file_by_name;
  for (const std::string& file : flags.positional) {
    auto [it, inserted] = file_by_name.emplace(BaseName(file), file);
    if (!inserted) {
      return Fail(Status::InvalidArgument(
          it->second + " and " + file + " both name document " + it->first));
    }
  }
  xml::Database db;
  for (const std::string& file : flags.positional) {
    auto content = ReadFile(file);
    if (!content.ok()) return Fail(content.status());
    auto doc = xml::ParseXml(*content, db.NextRootComponent());
    if (!doc.ok()) return Fail(doc.status());
    db.AddDocument(BaseName(file), *doc);
    std::printf("loaded %s (%zu elements)\n", file.c_str(), (*doc)->size());
  }
  Status s = storage::SaveDatabase(db, flags.out);
  if (!s.ok()) return Fail(s);
  std::printf("database written to %s\n", flags.out.c_str());
  return 0;
}

int CmdSearch(const Flags& flags) {
  if (flags.positional.size() != 1 || flags.view.empty() ||
      flags.keywords.empty()) {
    return Usage();
  }
  auto view_text = ReadFile(flags.view);
  if (!view_text.ok()) return Fail(view_text.status());
  auto backend = OpenCorpus(CorpusSpec(flags));
  if (!backend.ok()) return Fail(backend.status());
  engine::ViewSearchEngine engine(backend->ShardContexts());
  engine::SearchRequest request;
  request.view = *view_text;
  request.keywords = flags.keywords;
  request.options.top_k = flags.top_k;
  request.options.conjunctive = !flags.any;
  auto response = engine.Execute(request);
  if (!response.ok()) return Fail(response.status());
  std::printf("%zu of %zu view results match; module times "
              "qpt=%.2fms pdt=%.2fms eval=%.2fms post=%.2fms\n",
              response->stats.matching_results,
              response->stats.view_results, response->timings.qpt_ms,
              response->timings.pdt_ms, response->timings.eval_ms,
              response->timings.post_ms);
  for (size_t i = 0; i < response->hits.size(); ++i) {
    std::printf("#%zu score=%.4f\n%s\n", i + 1, response->hits[i].score,
                response->hits[i].xml.c_str());
  }
  return 0;
}

int CmdBaseSearch(const Flags& flags) {
  if (flags.positional.size() != 1 || flags.keywords.empty()) {
    return Usage();
  }
  auto backend = OpenCorpus(CorpusSpec(flags));
  if (!backend.ok()) return Fail(backend.status());
  if (backend->indexes == nullptr) {
    return Fail(Status::InvalidArgument(
        "basesearch needs an unsharded in-memory corpus (a database "
        "directory or --demo)"));
  }
  engine::BaseSearchOptions options;
  options.top_k = flags.top_k;
  options.conjunctive = !flags.any;
  auto hits = engine::SearchBaseDocuments(*backend->db, *backend->indexes,
                                          flags.keywords, options);
  if (!hits.ok()) return Fail(hits.status());
  for (size_t i = 0; i < hits->size(); ++i) {
    std::printf("#%zu score=%.4f %s %s\n%s\n", i + 1, (*hits)[i].score,
                (*hits)[i].document.c_str(),
                (*hits)[i].id.ToString().c_str(), (*hits)[i].xml.c_str());
  }
  return 0;
}

int CmdDemo() {
  auto backend = service::OpenBackend(service::BackendSpec{});
  if (!backend.ok()) return Fail(backend.status());
  engine::ViewSearchEngine engine(backend->ShardContexts());
  std::printf("query:\n%s\n\n", workload::BookRevKeywordQuery().c_str());
  engine::SearchRequest request;
  request.query = workload::BookRevKeywordQuery();
  auto response = engine.Execute(request);
  if (!response.ok()) return Fail(response.status());
  for (size_t i = 0; i < response->hits.size() && i < 3; ++i) {
    std::printf("#%zu score=%.4f\n%s\n\n", i + 1, response->hits[i].score,
                response->hits[i].xml.c_str());
  }
  return 0;
}

/// The end-of-run stats block (serve and page): per-store fetch totals,
/// and — for packed databases — the buffer-pool picture. This is what
/// bench and CI artifacts eyeball instead of a debugger.
void PrintStorageStats(const service::Backend& backend) {
  if (backend.shards != nullptr) {
    for (size_t i = 0; i < backend.shards->size(); ++i) {
      storage::DocumentStore::Stats s = backend.shards->shard(i).store->stats();
      std::printf(
          "shard %zu storage: %llu fetches, %llu bytes, %llu pages read, "
          "%llu buffer hits\n",
          i, static_cast<unsigned long long>(s.fetch_calls),
          static_cast<unsigned long long>(s.bytes_fetched),
          static_cast<unsigned long long>(s.pages_read),
          static_cast<unsigned long long>(s.buffer_hits));
    }
  }
  if (backend.store != nullptr) {
    storage::DocumentStore::Stats store_stats = backend.store->stats();
    std::printf(
        "storage: %llu fetches, %llu bytes, %llu pages read, "
        "%llu buffer hits\n",
        static_cast<unsigned long long>(store_stats.fetch_calls),
        static_cast<unsigned long long>(store_stats.bytes_fetched),
        static_cast<unsigned long long>(store_stats.pages_read),
        static_cast<unsigned long long>(store_stats.buffer_hits));
  }
  if (backend.packed != nullptr) {
    pagestore::BufferPoolStats pool = backend.packed->pool().stats();
    std::printf(
        "buffer pool: %llu hits, %llu misses, %llu evictions, "
        "%llu bytes read, %llu frames resident (budget %zu)\n",
        static_cast<unsigned long long>(pool.hits),
        static_cast<unsigned long long>(pool.misses),
        static_cast<unsigned long long>(pool.evictions),
        static_cast<unsigned long long>(pool.bytes_read),
        static_cast<unsigned long long>(pool.frames_in_use),
        backend.packed->pool().frame_budget());
  }
}

int CmdPack(const Flags& flags) {
  // pack --demo <out.qvpack>  |  pack <db-dir> <out.qvpack>
  // pack ... <out.qvset> --shards N [--colocate tag]
  size_t expected = flags.corpus.demo ? 1 : 2;
  if (flags.positional.size() != expected) return Usage();
  const std::string& out = flags.positional.back();
  const bool sharded = flags.corpus.shards > 0 || service::IsShardSetPath(out);
  if (sharded && !service::IsShardSetPath(out)) {
    std::fprintf(stderr, "pack --shards: output must end in .qvset\n");
    return 2;
  }
  if (!sharded && !service::IsPackPath(out)) {
    std::fprintf(stderr, "pack: output must end in .qvpack\n");
    return 2;
  }
  // --shards/--colocate shape the output here; the in-memory input is
  // opened whole and partitioned on the way to disk.
  service::BackendSpec input;
  input.demo = flags.corpus.demo;
  if (!input.demo) input.source = flags.positional[0];
  if (service::IsPackPath(input.source) ||
      service::IsShardSetPath(input.source)) {
    std::fprintf(stderr,
                 "pack: input must be a database directory (or --demo), "
                 "not an already-packed file\n");
    return 2;
  }
  auto backend = service::OpenBackend(input);
  if (!backend.ok()) return Fail(backend.status());

  if (sharded) {
    storage::ShardingSpec spec;
    spec.shards = std::max(1, flags.corpus.shards);
    spec.colocate_tag = flags.corpus.colocate;
    Status packed = pagestore::PackShardedDb(*backend->db, spec, out);
    if (!packed.ok()) return Fail(packed);
    std::printf("packed %zu documents into %d shards under %s:\n",
                backend->db->documents().size(), spec.shards,
                pagestore::ShardManifestPath(out).c_str());
    for (int i = 0; i < spec.shards; ++i) {
      auto reopened =
          pagestore::PagedFile::Open(pagestore::ShardPackPath(out, i));
      if (!reopened.ok()) return Fail(reopened.status());
      std::printf("  shard %d: %s, %u pages\n", i,
                  pagestore::ShardPackPath(out, i).c_str(),
                  (*reopened)->page_count());
    }
    return 0;
  }

  Status packed =
      pagestore::PackDatabase(*backend->db, *backend->indexes, out);
  if (!packed.ok()) return Fail(packed);
  auto reopened = pagestore::PagedFile::Open(out);
  if (!reopened.ok()) return Fail(reopened.status());
  std::printf(
      "packed %zu documents into %s: %u pages of %u bytes (%llu total)\n",
      backend->db->documents().size(), out.c_str(),
      (*reopened)->page_count(),
      pagestore::kPageSize,
      static_cast<unsigned long long>((*reopened)->page_count()) *
          pagestore::kPageSize);
  return 0;
}

int CmdAppend(const Flags& flags) {
  if (flags.positional.size() != 3) return Usage();
  const std::string& pack = flags.positional[0];
  const std::string& name = flags.positional[1];
  if (!service::IsPackPath(pack)) {
    std::fprintf(stderr, "append: first argument must be a .qvpack file\n");
    return 2;
  }
  auto xml_text = ReadFile(flags.positional[2]);
  if (!xml_text.ok()) return Fail(xml_text.status());
  Status appended = pagestore::PackAppend(pack, name, *xml_text);
  if (!appended.ok()) return Fail(appended);
  std::printf("appended '%s' (%zu bytes) to %s\n", name.c_str(),
              xml_text->size(), pagestore::DeltaLogPath(pack).c_str());
  return 0;
}

int CmdTombstone(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  const std::string& pack = flags.positional[0];
  const std::string& name = flags.positional[1];
  if (!service::IsPackPath(pack)) {
    std::fprintf(stderr,
                 "tombstone: first argument must be a .qvpack file\n");
    return 2;
  }
  Status buried = pagestore::PackTombstone(pack, name);
  if (!buried.ok()) return Fail(buried);
  std::printf("tombstoned '%s' in %s\n", name.c_str(),
              pagestore::DeltaLogPath(pack).c_str());
  return 0;
}

int CmdWalDump(const Flags& flags) {
  if (flags.positional.size() != 1) return Usage();
  const std::string& log = flags.positional[0];
  auto replay = pagestore::ReplayWal(log);
  if (!replay.ok()) return Fail(replay.status());
  uint64_t seq = 0;
  for (const std::string& payload : replay->payloads) {
    ++seq;
    auto record = pagestore::DecodeDeltaPayload(payload);
    if (!record.ok()) {
      // Not a delta-shaped payload; still committed and checksummed.
      std::printf("%6llu  raw        %zu bytes\n",
                  static_cast<unsigned long long>(seq), payload.size());
      continue;
    }
    std::printf("%6llu  %-9s  %-24s %zu bytes\n",
                static_cast<unsigned long long>(seq),
                record->tombstone ? "tombstone" : "insert",
                record->name.c_str(), record->xml.size());
  }
  std::printf("%zu committed records (last seq %llu)\n",
              replay->payloads.size(),
              static_cast<unsigned long long>(replay->last_seq));
  if (replay->tail_truncated) {
    std::printf("torn tail: %llu trailing bytes are not part of any "
                "committed record (a reopen for writing truncates them)\n",
                static_cast<unsigned long long>(replay->dropped_bytes));
  }
  return 0;
}

int CmdCompact(const Flags& flags) {
  if (flags.positional.size() != 2) return Usage();
  const std::string& in = flags.positional[0];
  const std::string& out = flags.positional[1];
  if (!service::IsPackPath(in) || !service::IsPackPath(out)) {
    std::fprintf(stderr, "compact: both arguments must be .qvpack files\n");
    return 2;
  }
  Status compacted = pagestore::CompactPack(in, out);
  if (!compacted.ok()) return Fail(compacted);
  auto reopened = pagestore::PagedFile::Open(out);
  if (!reopened.ok()) return Fail(reopened.status());
  std::printf("compacted %s -> %s: %u pages of %u bytes\n", in.c_str(),
              out.c_str(), (*reopened)->page_count(), pagestore::kPageSize);
  return 0;
}

int CmdServe(const Flags& flags) {
  if (!flags.corpus.demo && flags.positional.size() != 1) return Usage();
  if (!flags.corpus.demo && flags.view.empty() && !flags.demo_view) {
    return Usage();
  }

  auto backend = OpenCorpus(CorpusSpec(flags));
  if (!backend.ok()) return Fail(backend.status());
  auto view_text = tools::ReadViewText(flags.view);
  if (!view_text.ok()) return Fail(view_text.status());

  service::QueryServiceOptions options;
  options.threads = flags.threads;
  std::unique_ptr<service::QueryService> query_service =
      backend->NewService(options);
  Status registered = query_service->RegisterView("default", *view_text);
  if (!registered.ok()) return Fail(registered);

  // One query per stdin line: comma-separated keywords.
  std::vector<service::BatchQuery> batch;
  std::string line;
  while (std::getline(std::cin, line)) {
    service::BatchQuery query;
    query.view = "default";
    for (std::string_view piece : SplitString(line, ',')) {
      if (!piece.empty()) query.keywords.push_back(AsciiToLower(piece));
    }
    if (query.keywords.empty()) continue;
    query.options.top_k = flags.top_k;
    query.options.conjunctive = !flags.any;
    if (flags.deadline_ms > 0) {
      query.deadline = std::chrono::milliseconds(flags.deadline_ms);
    }
    batch.push_back(std::move(query));
  }
  if (batch.empty()) {
    std::fprintf(stderr, "serve: no queries on stdin\n");
    return 2;
  }

  // Cursor mode: stream each query's hits through a ResultCursor in
  // pages of --page on the calling thread. Store fetches accrue per
  // page — unfetched pages never touch base data — while repeated plan
  // signatures still hit the PDT cache.
  if (flags.page > 0) {
    if (flags.threads != 0 || flags.repeat != 1) {
      std::fprintf(stderr,
                   "serve --page: streaming serially on the calling "
                   "thread; --threads/--repeat are ignored\n");
    }
    int failures = 0;
    uint64_t trace_id = 0;
    for (service::BatchQuery& query : batch) {
      const std::string joined = JoinStrings(query.keywords, ",");
      if (flags.trace) {
        query.trace = std::make_shared<obs::Trace>(++trace_id);
      }
      auto cursor = query_service->OpenSearch(query);
      if (!cursor.ok()) {
        ++failures;
        std::printf("[%s] error: %s\n", joined.c_str(),
                    cursor.status().ToString().c_str());
        continue;
      }
      size_t page_no = 0;
      while (!(*cursor)->Done()) {
        auto page = (*cursor)->FetchNext(flags.page);
        if (!page.ok()) {
          ++failures;
          std::printf("[%s] error: %s\n", joined.c_str(),
                      page.status().ToString().c_str());
          break;
        }
        ++page_no;
        std::printf(
            "[%s] page %zu: %zu hits, top score %.4f, "
            "%llu store fetches so far\n",
            joined.c_str(), page_no, page->size(),
            page->empty() ? 0.0 : (*page)[0].score,
            static_cast<unsigned long long>(
                (*cursor)->stats().search.store_fetches));
      }
      const engine::SearchStats& s = (*cursor)->stats().search;
      std::printf(
          "[%s] done: fetched %zu of %zu matches in %zu pages, "
          "%llu store fetches\n",
          joined.c_str(), (*cursor)->fetched(), s.matching_results,
          page_no, static_cast<unsigned long long>(s.store_fetches));
      if (query.trace != nullptr) {
        std::printf("%s", query.trace->Serialize().c_str());
      }
    }
    service::QueryService::Stats stats = query_service->stats();
    std::printf("streamed %zu queries; cache hits %llu misses %llu\n",
                batch.size(),
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses));
    PrintStorageStats(*backend);
    return failures == 0 ? 0 : 1;
  }

  const size_t unique_queries = batch.size();
  batch.reserve(unique_queries * static_cast<size_t>(flags.repeat));
  for (int r = 1; r < flags.repeat; ++r) {
    for (size_t i = 0; i < unique_queries; ++i) batch.push_back(batch[i]);
  }
  if (flags.trace) {
    // Traces are per-entry, AFTER replication — repeated copies of one
    // query must not interleave their spans into a shared tree.
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].trace = std::make_shared<obs::Trace>(i + 1);
    }
  }

  auto start = std::chrono::steady_clock::now();
  auto responses = query_service->SearchBatch(batch);
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  int failures = 0;
  for (size_t i = 0; i < unique_queries; ++i) {
    const std::string joined = JoinStrings(batch[i].keywords, ",");
    if (!responses[i].ok()) {
      ++failures;
      std::printf("[%s] error: %s\n", joined.c_str(),
                  responses[i].status().ToString().c_str());
      continue;
    }
    const engine::SearchResponse& r = *responses[i];
    std::printf("[%s] %zu/%zu results, top score %.4f\n", joined.c_str(),
                r.stats.matching_results, r.stats.view_results,
                r.hits.empty() ? 0.0 : r.hits[0].score);
    if (batch[i].trace != nullptr) {
      std::printf("%s", batch[i].trace->Serialize().c_str());
    }
  }
  for (size_t i = unique_queries; i < responses.size(); ++i) {
    if (!responses[i].ok()) ++failures;
  }
  service::QueryService::Stats stats = query_service->stats();
  std::printf(
      "served %zu queries on %d threads in %.1f ms (%.0f q/s); "
      "cache hits %llu misses %llu\n",
      responses.size(), query_service->threads(), wall_ms,
      wall_ms > 0 ? 1000.0 * static_cast<double>(responses.size()) / wall_ms
                  : 0.0,
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses));
  PrintStorageStats(*backend);
  return failures == 0 ? 0 : 1;
}

/// Cursor-lifecycle walkthrough on the built-in books/reviews corpus or
/// a packed database: Open once, FetchNext page by page, and print the
/// store-fetch (and, when packed, page-read) counters after every page —
/// the visible form of the lazy-materialization guarantee (hits never
/// fetched never touch base data; with a packed db, never touch disk).
int CmdPage(const Flags& flags) {
  if (flags.positional.size() > 1) return Usage();
  auto backend = OpenCorpus(CorpusSpec(flags));
  if (!backend.ok()) return Fail(backend.status());
  auto view_text = tools::ReadViewText(flags.view);
  if (!view_text.ok()) return Fail(view_text.status());
  // One unified entry point at any shard count: a sharded backend fans
  // the request out per shard, an unsharded one is the one-shard case.
  engine::ViewSearchEngine engine(backend->ShardContexts(), /*pool=*/nullptr);

  std::vector<std::string> keywords = flags.keywords;
  if (keywords.empty()) keywords = {"xml", "search"};
  const size_t page_size = flags.page > 0 ? flags.page : 3;

  engine::SearchRequest request;
  request.view = *view_text;
  request.keywords = keywords;
  request.options.top_k = flags.top_k;
  request.options.conjunctive = !flags.any;
  if (flags.deadline_ms > 0) {
    request.deadline = std::chrono::milliseconds(flags.deadline_ms);
  }
  auto cursor = engine.Open(request);
  if (!cursor.ok()) return Fail(cursor.status());

  std::printf(
      "cursor open: %zu matches ranked, %zu materialized, "
      "%llu store fetches\n",
      (*cursor)->stats().search.matching_results, (*cursor)->fetched(),
      static_cast<unsigned long long>(
          (*cursor)->stats().search.store_fetches));
  size_t page_no = 0;
  while (!(*cursor)->Done()) {
    auto page = (*cursor)->FetchNext(page_size);
    if (!page.ok()) return Fail(page.status());
    ++page_no;
    std::printf("-- page %zu --\n", page_no);
    const size_t first_rank = (*cursor)->fetched() - page->size() + 1;
    for (size_t i = 0; i < page->size(); ++i) {
      std::printf("#%zu score=%.4f\n", first_rank + i, (*page)[i].score);
    }
    std::printf("   %llu store fetches so far (%llu bytes)\n",
                static_cast<unsigned long long>(
                    (*cursor)->stats().search.store_fetches),
                static_cast<unsigned long long>(
                    (*cursor)->stats().search.store_bytes));
    if (backend->packed != nullptr ||
        (backend->shards != nullptr && backend->shards->paged())) {
      std::printf("   %llu pages read so far (%llu buffer hits)\n",
                  static_cast<unsigned long long>(
                      (*cursor)->stats().search.pages_read),
                  static_cast<unsigned long long>(
                      (*cursor)->stats().search.buffer_hits));
    }
  }
  std::printf("cursor drained: %zu hits in %zu pages\n",
              (*cursor)->fetched(), page_no);
  PrintStorageStats(*backend);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  std::string command = argv[1];
  if (command == "index") return CmdIndex(flags);
  if (command == "search") return CmdSearch(flags);
  if (command == "basesearch") return CmdBaseSearch(flags);
  if (command == "demo") return CmdDemo();
  if (command == "pack") return CmdPack(flags);
  if (command == "append") return CmdAppend(flags);
  if (command == "tombstone") return CmdTombstone(flags);
  if (command == "compact") return CmdCompact(flags);
  if (command == "wal-dump") return CmdWalDump(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "page") return CmdPage(flags);
  return Usage();
}
