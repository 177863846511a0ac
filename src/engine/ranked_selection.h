// Extension from the paper's conclusion (§7): "an even more efficient
// strategy might be to avoid even producing the pruned view elements that
// do not make it to the top few results. This problem ... is non-trivial
// because of the presence of non-monotonic operators."
//
// For the monotone sub-class — selection-only views whose results are the
// selected base elements themselves (`for $x in fn:doc(...)...//tag[...]
// [where <leaf predicate>] return $x`) — the top-k answer is computable
// directly from the PDT's summarized statistics: each result's tf and
// byte length are the 'c' node's NodeStats, idf needs only match counts,
// and the query evaluator never runs. Views with joins, constructors or
// nesting are rejected with Unsupported and must use ViewSearchEngine
// (they can be non-monotonic, exactly as the paper warns).
#ifndef QUICKVIEW_ENGINE_RANKED_SELECTION_H_
#define QUICKVIEW_ENGINE_RANKED_SELECTION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/view_search_engine.h"
#include "index/index_builder.h"
#include "storage/document_store.h"
#include "xml/dom.h"

namespace quickview::engine {

/// Ranked keyword search over a monotone selection view, skipping view
/// evaluation entirely. Produces exactly the hits (same scores, same
/// order) ViewSearchEngine::Execute would for the same view and
/// keywords. Returns Unsupported when the view is outside the monotone
/// sub-class.
Result<SearchResponse> RankedSelectionSearch(
    const xml::Database& database, const index::DatabaseIndexes& indexes,
    const storage::DocumentStore* store, const std::string& view_text,
    const std::vector<std::string>& keywords, const SearchOptions& options);

}  // namespace quickview::engine

#endif  // QUICKVIEW_ENGINE_RANKED_SELECTION_H_
