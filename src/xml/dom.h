// In-memory XML document model (paper §2.1). Attributes are modeled as
// subelements, as the paper does; directly-contained text is stored inline
// on the owning element. Every node carries a Dewey ID (§3.2).
//
// The same Document class represents base documents, PDTs (pruned document
// trees, §4) and query result trees: PDT nodes additionally carry a
// NodeStats payload with selectively-materialized values, subtree term
// frequencies and subtree byte lengths, which is how the unmodified query
// evaluator can run over PDTs (paper Fig 3).
#ifndef QUICKVIEW_XML_DOM_H_
#define QUICKVIEW_XML_DOM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "xml/dewey_id.h"

namespace quickview::xml {

using NodeIndex = uint32_t;
inline constexpr NodeIndex kInvalidNode = static_cast<NodeIndex>(-1);

/// Extra payload present on PDT nodes and on result-tree nodes copied from
/// PDTs. For a 'c'-annotated node the subtree content is pruned away and
/// summarized by `term_tf` (per query keyword) and `byte_length`; the
/// original location is remembered for deferred materialization.
struct NodeStats {  // lint:allow(adhoc-stats) per-document structural counts, not telemetry
  /// Subtree term frequency for each query keyword, by keyword position.
  std::vector<uint32_t> term_tf;
  /// Serialized byte length of the full (unpruned) subtree.
  uint64_t byte_length = 0;
  /// True for 'c' nodes whose content is pruned and must be fetched from
  /// document storage during materialization.
  bool content_pruned = false;
  /// Source document ordinal (root Dewey component) and id, for fetching.
  uint32_t source_doc = 0;
  DeweyId source_id;
};

struct Node {
  std::string tag;
  /// Concatenated directly-contained text (atomic value for leaf elements).
  std::string text;
  DeweyId id;
  NodeIndex parent = kInvalidNode;
  std::vector<NodeIndex> children;
  /// Present on PDT / result-tree nodes only.
  std::optional<NodeStats> stats;
};

/// A single XML tree. Nodes are stored contiguously and addressed by
/// NodeIndex; the root always has index 0 once created.
class Document {
 public:
  /// `root_component` is the first Dewey component of every id in this
  /// document (distinct per document in a Database, as in paper Fig 8
  /// where book ids start with 1 and review ids with 2).
  explicit Document(uint32_t root_component = 1)
      : root_component_(root_component) {}

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// Creates the root element; must be called exactly once, first.
  NodeIndex CreateRoot(std::string tag);

  /// Appends a child element; the Dewey ordinal is one past the current
  /// last child's ordinal (contiguous for parsed documents).
  NodeIndex AddChild(NodeIndex parent, std::string tag);

  /// Appends a child element with an explicit Dewey id (PDT construction,
  /// where ordinals are sparse). `id` must be a child-extension of the
  /// parent's id and greater than the last child's id.
  NodeIndex AddChildWithId(NodeIndex parent, std::string tag, DeweyId id);

  bool has_root() const { return !nodes_.empty(); }
  NodeIndex root() const { return 0; }
  uint32_t root_component() const { return root_component_; }

  /// Moves the document to root component `root_component`: rewrites the
  /// first component of every node's id. For a document parsed before
  /// its place in a Database was known.
  void SetRootComponent(uint32_t root_component);

  Node& node(NodeIndex i) { return nodes_[i]; }
  const Node& node(NodeIndex i) const { return nodes_[i]; }
  size_t size() const { return nodes_.size(); }

  /// Locates the node with exactly this Dewey id, or kInvalidNode.
  NodeIndex FindByDewey(const DeweyId& id) const;

  /// Sum of tokens/bytes convenience: all node indices in document order
  /// (pre-order), starting at `start`.
  std::vector<NodeIndex> SubtreeNodes(NodeIndex start) const;

 private:
  uint32_t root_component_;
  std::vector<Node> nodes_;
};

/// Copies the subtree of `source` rooted at `source_index` into `target`
/// as a child of `target_parent` (or as the root when `target_parent` is
/// kInvalidNode and `target` is empty). The copy gets fresh contiguous
/// Dewey ordinals under the target position. Returns the copy's index.
/// Shared by the in-memory DocumentStore fetch path, the packed-database
/// delta overlay, and pack compaction.
NodeIndex CopySubtreeInto(const Document& source, NodeIndex source_index,
                          Document* target, NodeIndex target_parent);

/// A named collection of documents (the database instance D of §2.1).
/// Each document is registered under the name used by fn:doc() in views
/// and is assigned a distinct root Dewey component.
class Database {
 public:
  /// Adds `doc` under `name`; the document's root component must be unique
  /// within the database.
  void AddDocument(const std::string& name, std::shared_ptr<Document> doc);

  /// Unregisters the document stored under `name`; returns whether it
  /// existed. Shared_ptr holders (store snapshots, open cursors) keep the
  /// removed document alive.
  bool RemoveDocument(const std::string& name);

  /// nullptr if absent.
  const Document* GetDocument(const std::string& name) const;
  std::shared_ptr<Document> GetDocumentShared(const std::string& name) const;

  /// Document whose root component is `root_component`; nullptr if absent.
  const Document* GetDocumentByRoot(uint32_t root_component) const;
  const std::string* GetNameByRoot(uint32_t root_component) const;

  const std::map<std::string, std::shared_ptr<Document>>& documents() const {
    return documents_;
  }

  /// Smallest unused root component (1-based).
  uint32_t NextRootComponent() const;

 private:
  std::map<std::string, std::shared_ptr<Document>> documents_;
  std::map<uint32_t, std::string> by_root_;
};

}  // namespace quickview::xml

#endif  // QUICKVIEW_XML_DOM_H_
