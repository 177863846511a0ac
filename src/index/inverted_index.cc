#include "index/inverted_index.h"

namespace quickview::index {

namespace {
constexpr char kKeySep = '\x01';

std::string EncodeTf(uint32_t tf) {
  std::string out(4, '\0');
  out[0] = static_cast<char>((tf >> 24) & 0xff);
  out[1] = static_cast<char>((tf >> 16) & 0xff);
  out[2] = static_cast<char>((tf >> 8) & 0xff);
  out[3] = static_cast<char>(tf & 0xff);
  return out;
}

uint32_t DecodeTf(const std::string& bytes) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(bytes[0])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(bytes[1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(bytes[2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[3]));
}
}  // namespace

std::string InvertedIndex::MakeKey(const std::string& term,
                                   const xml::DeweyId& id) {
  std::string key = term;
  key.push_back(kKeySep);
  key.append(id.Encode());
  return key;
}

void InvertedIndex::Add(const std::string& term, const xml::DeweyId& id,
                        uint32_t count) {
  if (count == 0) return;
  std::string key = MakeKey(term, id);
  std::string existing;
  if (tree_.Get(key, &existing)) count += DecodeTf(existing);
  tree_.Insert(key, EncodeTf(count));
}

bool InvertedIndex::Remove(const std::string& term, const xml::DeweyId& id) {
  return tree_.Delete(MakeKey(term, id));
}

std::vector<Posting> InvertedIndex::Lookup(const std::string& term) const {
  std::vector<Posting> out;
  std::string prefix = term;
  prefix.push_back(kKeySep);
  for (BTree::Iterator it = tree_.Seek(prefix); it.Valid(); it.Next()) {
    if (it.key().compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(Posting{xml::DeweyId::Decode(it.key().substr(prefix.size())),
                          DecodeTf(it.value())});
  }
  return out;
}

void InvertedIndex::ForEachPosting(
    const std::function<void(const std::string&, const xml::DeweyId&,
                             uint32_t)>& fn) const {
  for (BTree::Iterator it = tree_.Begin(); it.Valid(); it.Next()) {
    size_t sep = it.key().find(kKeySep);
    fn(it.key().substr(0, sep),
       xml::DeweyId::Decode(it.key().substr(sep + 1)),
       DecodeTf(it.value()));
  }
}

}  // namespace quickview::index
