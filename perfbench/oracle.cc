#include "oracle.h"

#include <algorithm>
#include <bit>

namespace perfbench {

size_t NodeBits::Count() const {
  size_t c = 0;
  for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
  return c;
}

uint64_t NodeBits::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL ^ n_;
  for (uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 31;
  }
  return h;
}

Oracle::Oracle(const Document& doc) : doc_(doc) {
  for (NodeId n = 0; n < doc.NumNodes(); ++n) {
    by_tag_[doc.TagName(n)].push_back(n);
  }
}

std::vector<NodeId> Oracle::Candidates(const secxml::PatternNode& pn,
                                       const NodeBits* usable) const {
  std::vector<NodeId> out;
  auto consider = [&](NodeId n) {
    if (usable != nullptr && !usable->Get(n)) return;
    if (pn.has_value && doc_.Value(n) != pn.value) return;
    out.push_back(n);
  };
  if (pn.tag == "*") {
    for (NodeId n = 0; n < doc_.NumNodes(); ++n) consider(n);
  } else {
    auto it = by_tag_.find(pn.tag);
    if (it != by_tag_.end()) {
      for (NodeId n : it->second) consider(n);
    }
  }
  return out;
}

std::vector<NodeId> Oracle::Evaluate(const PatternTree& pattern,
                                     const NodeBits* usable) const {
  const int np = static_cast<int>(pattern.nodes.size());
  if (np == 0) return {};
  // sat[p]: nodes that can bind p with p's whole pattern subtree embedded
  // below them. Children have larger indices than their parents, so a
  // descending sweep sees every child before its parent.
  std::vector<std::vector<NodeId>> sat(np);
  for (int p = np - 1; p >= 0; --p) {
    std::vector<NodeId> cands = Candidates(pattern.nodes[p], usable);
    for (int c : pattern.nodes[p].children) {
      const std::vector<NodeId>& below = sat[c];
      std::vector<NodeId> kept;
      if (pattern.nodes[c].descendant_axis) {
        for (NodeId v : cands) {
          auto it = std::upper_bound(below.begin(), below.end(), v);
          if (it != below.end() && *it < doc_.SubtreeEnd(v)) kept.push_back(v);
        }
      } else {
        std::vector<NodeId> parents;
        parents.reserve(below.size());
        for (NodeId w : below) parents.push_back(doc_.Parent(w));
        std::sort(parents.begin(), parents.end());
        for (NodeId v : cands) {
          if (std::binary_search(parents.begin(), parents.end(), v)) {
            kept.push_back(v);
          }
        }
      }
      cands = std::move(kept);
    }
    sat[p] = std::move(cands);
  }

  // Walk the trunk from the pattern root down to the returning node,
  // keeping only bindings reachable from a complete match above them.
  std::vector<int> trunk;
  for (int p = pattern.returning_node; p >= 0; p = pattern.nodes[p].parent) {
    trunk.push_back(p);
  }
  std::reverse(trunk.begin(), trunk.end());
  std::vector<NodeId> reach = sat[0];
  if (!pattern.nodes[0].descendant_axis) {
    const bool root_ok = !reach.empty() && reach.front() == 0;
    reach.clear();
    if (root_ok) reach.push_back(0);
  }
  for (size_t i = 1; i < trunk.size(); ++i) {
    NodeBits above(doc_.NumNodes(), false);
    for (NodeId v : reach) above.Set(v, true);
    const bool desc = pattern.nodes[trunk[i]].descendant_axis;
    std::vector<NodeId> next;
    for (NodeId w : sat[trunk[i]]) {
      NodeId a = doc_.Parent(w);
      bool ok = false;
      while (a != secxml::kInvalidNode) {
        if (above.Get(a)) {
          ok = true;
          break;
        }
        if (!desc) break;
        a = doc_.Parent(a);
      }
      if (ok) next.push_back(w);
    }
    reach = std::move(next);
  }
  return reach;
}

NodeBits Oracle::Visible(const NodeBits& accessible) const {
  NodeBits vis(doc_.NumNodes(), false);
  for (NodeId n = 0; n < doc_.NumNodes(); ++n) {
    const NodeId p = doc_.Parent(n);
    vis.Set(n, accessible.Get(n) && (p == secxml::kInvalidNode || vis.Get(p)));
  }
  return vis;
}

size_t OracleMemo::ClassOf(const NodeBits& accessible) {
  const uint64_t h = accessible.Hash();
  auto [lo, hi] = by_hash_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (classes_[it->second] == accessible) return it->second;
  }
  classes_.push_back(accessible);
  visible_.emplace_back();
  by_hash_.emplace(h, classes_.size() - 1);
  return classes_.size() - 1;
}

const std::vector<NodeId>& OracleMemo::Answers(size_t query,
                                               const PatternTree& pattern,
                                               AccessSemantics sem,
                                               size_t cls) {
  if (sem == AccessSemantics::kNone) cls = 0;
  const auto key = std::make_tuple(query, static_cast<int>(sem), cls);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  ++evaluations_;
  const NodeBits* usable = nullptr;
  if (sem == AccessSemantics::kBinding) {
    usable = &classes_[cls];
  } else if (sem == AccessSemantics::kView) {
    if (visible_[cls] == nullptr) {
      visible_[cls] =
          std::make_unique<NodeBits>(oracle_->Visible(classes_[cls]));
    }
    usable = visible_[cls].get();
  }
  return memo_.emplace(key, oracle_->Evaluate(pattern, usable))
      .first->second;
}

}  // namespace perfbench
