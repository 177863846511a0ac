#include "index/path_index.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace quickview::index {

namespace {

// Separates the path from the value in composite B+-tree keys. '\x01' is
// below any tag or value character we produce.
constexpr char kKeySep = '\x01';

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

uint32_t ReadU32(const std::string& in, size_t* pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | static_cast<unsigned char>(in[(*pos)++]);
  }
  return v;
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

uint64_t ReadU64(const std::string& in, size_t* pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<unsigned char>(in[(*pos)++]);
  }
  return v;
}

bool ByDewey(const PathEntry& a, const PathEntry& b) { return a.id < b.id; }

}  // namespace

std::string MakePathValueKey(const std::string& path,
                             const std::string& value) {
  std::string key = path;
  key.push_back(kKeySep);
  key.append(value);
  return key;
}

std::string EncodePathEntryList(
    const std::vector<std::pair<xml::DeweyId, uint64_t>>& entries) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& [id, byte_length] : entries) {
    std::string id_bytes = id.Encode();
    AppendU32(&out, static_cast<uint32_t>(id_bytes.size()));
    out.append(id_bytes);
    AppendU64(&out, byte_length);
  }
  return out;
}

void DecodePathEntryListInto(const std::string& encoded,
                             const std::optional<std::string>& value,
                             std::vector<PathEntry>* out) {
  size_t pos = 0;
  uint32_t count = ReadU32(encoded, &pos);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id_len = ReadU32(encoded, &pos);
    xml::DeweyId id = xml::DeweyId::Decode(encoded.substr(pos, id_len));
    pos += id_len;
    uint64_t byte_length = ReadU64(encoded, &pos);
    out->push_back(PathEntry{std::move(id), byte_length, value});
  }
}

std::string PatternToString(const PathPattern& pattern) {
  std::string out;
  for (const PathStep& step : pattern) {
    out += step.descendant ? "//" : "/";
    out += step.tag;
  }
  return out;
}

namespace {

bool MatchFrom(const PathPattern& pattern, size_t pi,
               const std::vector<std::string_view>& segments, size_t si) {
  if (pi == pattern.size()) return si == segments.size();
  const PathStep& step = pattern[pi];
  if (!step.descendant) {
    return si < segments.size() && segments[si] == step.tag &&
           MatchFrom(pattern, pi + 1, segments, si + 1);
  }
  for (size_t t = si; t < segments.size(); ++t) {
    if (segments[t] == step.tag &&
        MatchFrom(pattern, pi + 1, segments, t + 1)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool PatternMatchesPath(const PathPattern& pattern, const std::string& path) {
  assert(!path.empty() && path[0] == '/');
  std::vector<std::string_view> segments =
      SplitString(std::string_view(path).substr(1), '/');
  return MatchFrom(pattern, 0, segments, 0);
}

void PathIndex::AddEntry(const std::string& path, const std::string& value,
                         const xml::DeweyId& id, uint64_t byte_length) {
  pending_[{path, value}].emplace_back(id, byte_length);
}

void PathIndex::Finalize() {
  std::string last_path;
  for (auto& [key, entries] : pending_) {
    const auto& [path, value] = key;
    if (path != last_path) {
      paths_.push_back(path);
      last_path = path;
    }
    ++path_rows_[path];
    tree_.Insert(MakePathValueKey(path, value), EncodePathEntryList(entries));
  }
  pending_.clear();
}

namespace {

/// Inverse of EncodePathEntryList, back to the (id, byte length) pairs
/// the read-modify-write mutation path re-encodes.
std::vector<std::pair<xml::DeweyId, uint64_t>> DecodePathEntryPairs(
    const std::string& encoded) {
  std::vector<std::pair<xml::DeweyId, uint64_t>> out;
  size_t pos = 0;
  uint32_t count = ReadU32(encoded, &pos);
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id_len = ReadU32(encoded, &pos);
    xml::DeweyId id = xml::DeweyId::Decode(encoded.substr(pos, id_len));
    pos += id_len;
    uint64_t byte_length = ReadU64(encoded, &pos);
    out.emplace_back(std::move(id), byte_length);
  }
  return out;
}

}  // namespace

void PathIndex::InsertEntry(const std::string& path, const std::string& value,
                            const xml::DeweyId& id, uint64_t byte_length) {
  assert(pending_.empty());
  std::string key = MakePathValueKey(path, value);
  std::string encoded;
  std::vector<std::pair<xml::DeweyId, uint64_t>> entries;
  if (tree_.Get(key, &encoded)) {
    entries = DecodePathEntryPairs(encoded);
  } else if (++path_rows_[path] == 1) {
    paths_.insert(std::lower_bound(paths_.begin(), paths_.end(), path), path);
  }
  auto it = std::lower_bound(entries.begin(), entries.end(), id,
                             [](const std::pair<xml::DeweyId, uint64_t>& e,
                                const xml::DeweyId& target) {
                               return e.first < target;
                             });
  if (it != entries.end() && it->first == id) {
    it->second = byte_length;
  } else {
    entries.emplace(it, id, byte_length);
  }
  tree_.Insert(key, EncodePathEntryList(entries));
}

bool PathIndex::RemoveEntry(const std::string& path, const std::string& value,
                            const xml::DeweyId& id) {
  assert(pending_.empty());
  std::string key = MakePathValueKey(path, value);
  std::string encoded;
  if (!tree_.Get(key, &encoded)) return false;
  std::vector<std::pair<xml::DeweyId, uint64_t>> entries =
      DecodePathEntryPairs(encoded);
  auto it = std::lower_bound(entries.begin(), entries.end(), id,
                             [](const std::pair<xml::DeweyId, uint64_t>& e,
                                const xml::DeweyId& target) {
                               return e.first < target;
                             });
  if (it == entries.end() || it->first != id) return false;
  entries.erase(it);
  if (!entries.empty()) {
    tree_.Insert(key, EncodePathEntryList(entries));
    return true;
  }
  tree_.Delete(key);
  auto rows = path_rows_.find(path);
  if (rows != path_rows_.end() && --rows->second == 0) {
    path_rows_.erase(rows);
    auto pos = std::lower_bound(paths_.begin(), paths_.end(), path);
    if (pos != paths_.end() && *pos == path) paths_.erase(pos);
  }
  return true;
}

std::vector<std::string> PathIndex::ExpandPattern(
    const PathPattern& pattern) const {
  std::vector<std::string> out;
  for (const std::string& path : paths_) {
    if (PatternMatchesPath(pattern, path)) out.push_back(path);
  }
  return out;
}

void PathIndex::AppendPathEntries(const std::string& path, bool with_values,
                                  std::vector<PathEntry>* out) const {
  // The path plus separator is a prefix of the composite key of every
  // (path, value) row on that path.
  std::string prefix = path;
  prefix.push_back(kKeySep);
  for (BTree::Iterator it = tree_.Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, prefix.size(), prefix) != 0) break;
    std::optional<std::string> value;
    if (with_values) value = it.key().substr(prefix.size());
    DecodePathEntryListInto(it.value(), value, out);
  }
}

void PathIndex::ForEachRow(
    const std::function<void(const std::string&, const std::string&,
                             const std::vector<PathEntry>&)>& fn) const {
  for (BTree::Iterator it = tree_.Begin(); it.Valid(); it.Next()) {
    size_t sep = it.key().find(kKeySep);
    std::string path = it.key().substr(0, sep);
    std::string value = it.key().substr(sep + 1);
    std::vector<PathEntry> entries;
    DecodePathEntryListInto(it.value(), std::nullopt, &entries);
    fn(path, value, entries);
  }
}

void PathIndex::ForEachRaw(
    const std::function<void(const std::string&, const std::string&)>& fn)
    const {
  for (BTree::Iterator it = tree_.Begin(); it.Valid(); it.Next()) {
    fn(it.key(), it.value());
  }
}

std::vector<PathRows> PathIndex::LookUpPerPath(const PathPattern& pattern,
                                               bool with_values) const {
  std::vector<PathRows> out;
  for (const std::string& path : ExpandPattern(pattern)) {
    PathRows rows;
    rows.path = path;
    AppendPathEntries(path, with_values, &rows.entries);
    std::sort(rows.entries.begin(), rows.entries.end(), ByDewey);
    if (!rows.entries.empty()) out.push_back(std::move(rows));
  }
  return out;
}

std::vector<PathEntry> PathIndex::LookUpId(const PathPattern& pattern) const {
  std::vector<PathEntry> out;
  for (const std::string& path : ExpandPattern(pattern)) {
    AppendPathEntries(path, /*with_values=*/false, &out);
  }
  // Merge the per-row Dewey-ordered lists into one ordered list.
  std::sort(out.begin(), out.end(), ByDewey);
  return out;
}

}  // namespace quickview::index
