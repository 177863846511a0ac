// SearchRequest: the one request object behind the unified search entry
// point ViewSearchEngine::Open(request) (and QueryService::OpenSearch).
// A request carries either a full Fig-2 keyword query or a view plus
// keyword list, the ranking options, an optional shard routing hint, an
// optional deadline, and an optional caller-owned cancellation token.
// Validation lives in ONE place — Validate(), called once at Open — so
// no entry point can check top_k or empty keywords differently from
// another.
#ifndef QUICKVIEW_ENGINE_SEARCH_REQUEST_H_
#define QUICKVIEW_ENGINE_SEARCH_REQUEST_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "obs/trace.h"

namespace quickview::engine {

struct SearchOptions {
  size_t top_k = 10;        // must be >= 1 (see SearchRequest::Validate)
  bool conjunctive = true;  // all keywords vs any keyword
};

/// API-boundary validation shared by every search entry point (engine and
/// service): InvalidArgument for top_k == 0 — a request for zero results
/// is a caller bug, not a query to run.
Status ValidateSearchOptions(const SearchOptions& options);

struct SearchRequest {
  /// Exactly one of `query` / `view` must be set. `query` is a full
  /// Fig-2 keyword query ("let $view := ... ftcontains(...)"); `view` is
  /// the view half alone — the view TEXT at the engine boundary, a
  /// registered view NAME at the service boundary — combined with
  /// `keywords` (lowercased internally; must be non-empty in this form;
  /// the connective comes from options.conjunctive).
  std::string query;
  std::string view;
  std::vector<std::string> keywords;

  SearchOptions options;

  /// Shard routing hint: -1 (default) searches every shard; i >= 0
  /// restricts execution to shard i — for callers that co-located a
  /// tenant onto one shard and want to skip the others. A restricted
  /// search ranks against that shard's view alone (idf over the shard,
  /// not the corpus), so it is a different query, not a cheaper spelling
  /// of the global one.
  int shard = -1;

  /// Wall-clock budget measured from Open. When it expires, in-flight
  /// shard work unwinds and the query fails DeadlineExceeded.
  std::optional<std::chrono::milliseconds> deadline;

  /// Caller-owned cancellation token, shared with every shard task this
  /// request spawns. Cancel() from any thread stops the query (Open
  /// returns Cancelled); the cursor also fires it once the top_k budget
  /// is satisfied and on destruction, so cooperating caller-side work
  /// can stop too. Left null, the engine makes a private token (needed
  /// for deadline / fail-fast propagation).
  std::shared_ptr<CancellationToken> cancel;

  /// Optional per-request trace (null = tracing off, the default, with
  /// near-zero cost on the search path). When set, Open records one
  /// span per shard task (plan/build_pdts/evaluate children), a merge
  /// span, and the cursor adds a materialize span whose per-shard I/O
  /// counters are attributed back to the shard spans — so summing a
  /// counter over the shard spans always matches the cursor's
  /// EngineStats. The cursor co-owns the trace; serialize it only after
  /// the request (and any fetching) is quiescent.
  std::shared_ptr<obs::Trace> trace;

  /// The single validation boundary: exactly-one-of query/view, top_k
  /// >= 1, non-empty keywords in view form. Typed InvalidArgument on
  /// each violation. Shard-hint range is checked at Open, where the
  /// shard count is known.
  Status Validate() const;
};

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_SEARCH_REQUEST_H_
