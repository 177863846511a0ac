// GeneratePdt (paper §4.2.2, Figs 9-11, generalized in Appendix E): builds
// the Pruned Document Tree for one QPT with a single merge pass over the
// Dewey-ordered lists from PrepareLists, never touching base documents.
// The PDT contains exactly the elements satisfying the ancestor,
// descendant and predicate constraints of the QPT (Definitions 1-3), with
// selectively materialized values on 'v' nodes and subtree term
// frequencies + byte lengths on 'c' nodes.
#ifndef QUICKVIEW_PDT_GENERATE_PDT_H_
#define QUICKVIEW_PDT_GENERATE_PDT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/index_view.h"
#include "pdt/prepare_lists.h"
#include "qpt/qpt.h"
#include "xml/dom.h"

namespace quickview::pdt {

/// A confirmed pruned-tree element: what PDT generation (and the GTP
/// baseline) emit before document assembly.
struct PdtElement {
  std::string tag;
  std::optional<std::string> value;  // 'v' nodes: selectively materialized
  uint64_t byte_length = 0;
  bool content = false;  // 'c' nodes: carry tf/byte-length NodeStats
};

/// Assembles emitted elements (keyed by Dewey id, i.e. document order)
/// into a Document, synthesizing placeholder ancestors for depths the QPT
/// does not mention (only reachable via '//' steps, so their tags are
/// never inspected). 'c' elements get NodeStats with per-keyword subtree
/// term frequencies computed from `inv_lists`.
std::shared_ptr<xml::Document> AssemblePdtDocument(
    const std::map<xml::DeweyId, PdtElement>& elements,
    const std::vector<InvList>& inv_lists);

struct PdtBuildStats {  // lint:allow(adhoc-stats) per-build result record returned to the caller
  uint64_t ids_processed = 0;    // ids consumed from path lists
  uint64_t nodes_emitted = 0;    // PDT nodes written
  uint64_t peak_ct_nodes = 0;    // candidate-tree high-water mark
  uint64_t index_probes = 0;     // from PrepareLists
  uint64_t pdt_bytes = 0;        // serialized size of the PDT
};

/// Builds the PDT for `qpt` from already-prepared lists.
Result<std::shared_ptr<xml::Document>> GeneratePdtFromLists(
    const qpt::Qpt& qpt, PreparedLists lists, PdtBuildStats* stats);

/// Convenience: PrepareLists + GeneratePdtFromLists (the GeneratePDT of
/// Fig 9). `keywords` must be lowercased. Runs identically over in-memory
/// and disk-resident indices.
Result<std::shared_ptr<xml::Document>> GeneratePdt(
    const qpt::Qpt& qpt, const index::DocumentIndexView& indexes,
    const std::vector<std::string>& keywords, PdtBuildStats* stats = nullptr);

}  // namespace quickview::pdt

#endif  // QUICKVIEW_PDT_GENERATE_PDT_H_
