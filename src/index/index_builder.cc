#include "index/index_builder.h"

#include <vector>

#include "xml/serializer.h"
#include "xml/tokenizer.h"

namespace quickview::index {

const DocumentIndexes* DatabaseIndexes::Get(const std::string& doc_name) const {
  auto it = indexes_.find(doc_name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

DocumentIndexes* DatabaseIndexes::GetMutable(const std::string& doc_name) {
  auto it = indexes_.find(doc_name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

void DatabaseIndexes::Put(const std::string& doc_name,
                          std::unique_ptr<DocumentIndexes> idx) {
  indexes_[doc_name] = std::move(idx);
}

bool DatabaseIndexes::Remove(const std::string& doc_name) {
  return indexes_.erase(doc_name) != 0;
}

namespace {

void IndexSubtree(const xml::Document& doc, xml::NodeIndex index,
                  std::string* path, DocumentIndexes* out) {
  const xml::Node& node = doc.node(index);
  size_t path_len = path->size();
  path->push_back('/');
  path->append(node.tag);

  out->path_index.AddEntry(*path, node.text, node.id,
                           xml::SubtreeByteLength(doc, index));

  // Count directly-contained terms (tag-name tokens + direct text tokens).
  std::map<std::string, uint32_t> counts;
  for (std::string& term : xml::DirectTerms(node)) ++counts[term];
  for (const auto& [term, count] : counts) {
    out->inverted_index.Add(term, node.id, count);
  }

  for (xml::NodeIndex child : node.children) {
    IndexSubtree(doc, child, path, out);
  }
  path->resize(path_len);
}

/// The incremental mirror of IndexSubtree: the same walk, routed to the
/// read-modify-write mutation methods (byte lengths precomputed in one
/// pass — the bulk walk's per-node recursion is fine at load time but
/// O(n x depth) per update).
void ApplySubtree(const xml::Document& doc, xml::NodeIndex index,
                  const std::vector<uint64_t>& byte_lengths,
                  std::string* path, bool add, DocumentIndexes* out) {
  const xml::Node& node = doc.node(index);
  size_t path_len = path->size();
  path->push_back('/');
  path->append(node.tag);

  if (add) {
    out->path_index.InsertEntry(*path, node.text, node.id,
                                byte_lengths[index]);
  } else {
    out->path_index.RemoveEntry(*path, node.text, node.id);
  }

  std::map<std::string, uint32_t> counts;
  for (std::string& term : xml::DirectTerms(node)) ++counts[term];
  for (const auto& [term, count] : counts) {
    if (add) {
      out->inverted_index.Add(term, node.id, count);
    } else {
      out->inverted_index.Remove(term, node.id);
    }
  }

  for (xml::NodeIndex child : node.children) {
    ApplySubtree(doc, child, byte_lengths, path, add, out);
  }
  path->resize(path_len);
}

void ApplyDocument(const xml::Document& doc, bool add, DocumentIndexes* out) {
  if (!doc.has_root()) return;
  std::vector<uint64_t> byte_lengths(doc.size(), 0);
  xml::SubtreeByteLengths(doc, doc.root(), &byte_lengths);
  std::string path;
  ApplySubtree(doc, doc.root(), byte_lengths, &path, add, out);
}

}  // namespace

void DocumentIndexes::AddDocument(const xml::Document& doc) {
  ApplyDocument(doc, /*add=*/true, this);
}

void DocumentIndexes::RemoveDocument(const xml::Document& doc) {
  ApplyDocument(doc, /*add=*/false, this);
}

std::unique_ptr<DocumentIndexes> BuildDocumentIndexes(
    const xml::Document& doc) {
  auto out = std::make_unique<DocumentIndexes>();
  if (doc.has_root()) {
    std::string path;
    IndexSubtree(doc, doc.root(), &path, out.get());
  }
  out->path_index.Finalize();
  return out;
}

std::unique_ptr<DatabaseIndexes> BuildDatabaseIndexes(
    const xml::Database& database) {
  auto out = std::make_unique<DatabaseIndexes>();
  for (const auto& [name, doc] : database.documents()) {
    out->Put(name, BuildDocumentIndexes(*doc));
  }
  return out;
}

}  // namespace quickview::index
