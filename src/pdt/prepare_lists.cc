#include "pdt/prepare_lists.h"

#include <algorithm>

#include "common/strings.h"

namespace quickview::pdt {

void InvList::BuildPrefix() {
  tf_prefix.assign(postings.size() + 1, 0);
  for (size_t i = 0; i < postings.size(); ++i) {
    tf_prefix[i + 1] = tf_prefix[i] + postings[i].tf;
  }
}

uint64_t InvList::SubtreeTf(const xml::DeweyId& id) const {
  // Postings with `id` as a prefix form a contiguous range: [first posting
  // >= id, first posting >= successor(id)), where the successor increments
  // the last component.
  auto lo = std::lower_bound(
      postings.begin(), postings.end(), id,
      [](const index::Posting& p, const xml::DeweyId& key) {
        return p.id < key;
      });
  std::vector<uint32_t> succ_components = id.components();
  if (succ_components.empty()) return tf_prefix.back();
  ++succ_components.back();
  xml::DeweyId successor(std::move(succ_components));
  auto hi = std::lower_bound(
      postings.begin(), postings.end(), successor,
      [](const index::Posting& p, const xml::DeweyId& key) {
        return p.id < key;
      });
  return tf_prefix[hi - postings.begin()] - tf_prefix[lo - postings.begin()];
}

std::vector<std::vector<int>> MapDepthsToQptNodes(const qpt::Qpt& qpt,
                                                  int leaf,
                                                  const std::string& path) {
  // Chain of QPT nodes from below the virtual root down to `leaf`.
  std::vector<int> chain;
  for (int n = leaf; n > 0; n = qpt.nodes[n].parent) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  const size_t k = chain.size();

  std::vector<std::string_view> segments =
      SplitString(std::string_view(path).substr(1), '/');
  const size_t m = segments.size();

  // forward[j][d]: chain[0..j) embeds into segments[0..d) with chain[j-1]
  // at depth d (1-based). j, d in [0, k] x [0, m].
  auto matches = [&](size_t j, size_t d) {
    return segments[d - 1] == qpt.nodes[chain[j - 1]].tag;
  };
  std::vector<std::vector<char>> forward(k + 1,
                                         std::vector<char>(m + 1, false));
  forward[0][0] = true;
  for (size_t j = 1; j <= k; ++j) {
    bool descendant = qpt.nodes[chain[j - 1]].parent_descendant;
    for (size_t d = j; d <= m; ++d) {
      if (!matches(j, d)) continue;
      if (descendant) {
        for (size_t prev = j - 1; prev < d; ++prev) {
          if (forward[j - 1][prev]) {
            forward[j][d] = true;
            break;
          }
        }
      } else {
        forward[j][d] = forward[j - 1][d - 1];
      }
    }
  }

  // backward[j][d]: with chain[j-1] placed at depth d, the remaining chain
  // can finish exactly at depth m.
  std::vector<std::vector<char>> backward(k + 1,
                                          std::vector<char>(m + 1, false));
  if (k <= m) backward[k][m] = matches(k, m);
  for (size_t j = k - 1; j >= 1 && j < k; --j) {
    bool next_descendant = qpt.nodes[chain[j]].parent_descendant;
    for (size_t d = j; d <= m; ++d) {
      if (!matches(j, d)) continue;
      if (next_descendant) {
        for (size_t next = d + 1; next <= m; ++next) {
          if (backward[j + 1][next]) {
            backward[j][d] = true;
            break;
          }
        }
      } else {
        if (d + 1 <= m) backward[j][d] = backward[j + 1][d + 1];
      }
    }
  }

  std::vector<std::vector<int>> out(m);
  for (size_t d = 1; d <= m; ++d) {
    for (size_t j = 1; j <= k; ++j) {
      if (forward[j][d] && backward[j][d]) {
        out[d - 1].push_back(chain[j - 1]);
      }
    }
  }
  return out;
}

namespace {

/// An entry passes when its value satisfies every predicate on the node.
bool PassesPredicates(const qpt::QptNode& node,
                      const index::PathEntry& entry) {
  if (node.preds.empty()) return true;
  const std::string& value = entry.value.has_value() ? *entry.value : "";
  for (const qpt::QptPredicate& pred : node.preds) {
    if (!pred.Matches(value)) return false;
  }
  return true;
}

}  // namespace

Result<PreparedLists> PrepareLists(const qpt::Qpt& qpt,
                                   const index::DocumentIndexView& indexes,
                                   const std::vector<std::string>& keywords) {
  PreparedLists out;

  for (int n = 1; n < static_cast<int>(qpt.nodes.size()); ++n) {
    const qpt::QptNode& node = qpt.nodes[n];
    bool probe = !qpt.HasMandatoryChild(n) || node.v_ann || node.c_ann;
    if (!probe) continue;
    // Values ride along when the node needs them for evaluation or has
    // predicates to check ("combining retrieval of IDs and values").
    bool with_values = node.v_ann || !node.preds.empty();

    PathList list;
    list.qpt_node = n;
    index::PathPattern pattern = qpt.PatternFor(n);
    QUICKVIEW_ASSIGN_OR_RETURN(
        std::vector<index::PathRows> rows,
        indexes.LookUpPerPath(pattern, with_values));
    ++out.index_probes;

    for (index::PathRows& row : rows) {
      int ordinal = static_cast<int>(list.depth_qnodes.size());
      list.depth_qnodes.push_back(MapDepthsToQptNodes(qpt, n, row.path));
      for (index::PathEntry& entry : row.entries) {
        if (!PassesPredicates(node, entry)) continue;
        ListEntry le;
        le.id = std::move(entry.id);
        le.byte_length = entry.byte_length;
        if (node.v_ann) le.value = std::move(entry.value);
        le.path_ordinal = ordinal;
        list.entries.push_back(std::move(le));
      }
    }
    // Merge per-path lists into one Dewey-ordered list.
    std::sort(list.entries.begin(), list.entries.end(),
              [](const ListEntry& a, const ListEntry& b) {
                return a.id < b.id;
              });
    out.path_lists.push_back(std::move(list));
  }

  for (const std::string& keyword : keywords) {
    InvList inv;
    inv.term = keyword;
    QUICKVIEW_ASSIGN_OR_RETURN(inv.postings, indexes.Lookup(keyword));
    inv.BuildPrefix();
    out.inv_lists.push_back(std::move(inv));
  }
  return out;
}

}  // namespace quickview::pdt
