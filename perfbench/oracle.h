// Reference twig evaluator for the end-to-end benchmark.
//
// Evaluates a pattern straight over the in-memory Document with an explicit
// per-node bitmap of usable nodes, never touching the DOL, the codebook or
// the NoK pages. The three access semantics reduce to one matcher:
//   kNone    — every node is usable;
//   binding  — a node is usable iff it is accessible (every bound node must
//              be accessible);
//   view     — a node is usable iff it and all of its ancestors are
//              accessible (an inaccessible node hides its whole subtree).
// Matching is homomorphic (sibling pattern nodes may bind the same data
// node) and unordered; a descendant edge needs no condition on the nodes it
// skips. The answer is the sorted set of data nodes bound to the returning
// node in some complete match.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "query/evaluator.h"
#include "query/pattern_tree.h"
#include "xml/document.h"

namespace perfbench {

using secxml::AccessSemantics;
using secxml::Document;
using secxml::NodeId;
using secxml::PatternTree;

/// One bit per document node.
class NodeBits {
 public:
  NodeBits() = default;
  NodeBits(size_t n, bool value)
      : n_(n), words_((n + 63) / 64, value ? ~uint64_t{0} : 0) {
    if (value && n % 64 != 0) words_.back() = (uint64_t{1} << (n % 64)) - 1;
  }
  size_t size() const { return n_; }
  bool Get(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }
  void Set(size_t i, bool v) {
    if (v) {
      words_[i >> 6] |= uint64_t{1} << (i & 63);
    } else {
      words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
    }
  }
  /// Sets [begin, end) to `v`.
  void SetRange(size_t begin, size_t end, bool v) {
    for (size_t i = begin; i < end; ++i) Set(i, v);
  }
  size_t Count() const;
  uint64_t Hash() const;
  bool operator==(const NodeBits& o) const {
    return n_ == o.n_ && words_ == o.words_;
  }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> words_;
};

class Oracle {
 public:
  explicit Oracle(const Document& doc);

  /// Answers of `pattern` when only nodes set in `usable` may bind
  /// (nullptr: every node may).
  std::vector<NodeId> Evaluate(const PatternTree& pattern,
                               const NodeBits* usable) const;

  /// The view-semantics usable set: accessible nodes whose ancestors are
  /// all accessible.
  NodeBits Visible(const NodeBits& accessible) const;

  const Document& doc() const { return doc_; }

 private:
  std::vector<NodeId> Candidates(const secxml::PatternNode& pn,
                                 const NodeBits* usable) const;

  const Document& doc_;
  /// Tag name -> nodes carrying it, ascending.
  std::unordered_map<std::string, std::vector<NodeId>> by_tag_;
};

/// Memoizes oracle answers per (query, semantics, accessibility class). A
/// class is one distinct accessible bitmap, compared by content.
class OracleMemo {
 public:
  explicit OracleMemo(const Oracle* oracle) : oracle_(oracle) {}

  /// Registers `accessible` and returns its class id.
  size_t ClassOf(const NodeBits& accessible);

  /// Answers of query number `query` (pattern `pattern`) under `sem` for
  /// class `cls` (ignored under kNone).
  const std::vector<NodeId>& Answers(size_t query, const PatternTree& pattern,
                                     AccessSemantics sem, size_t cls);

  size_t evaluations() const { return evaluations_; }

 private:
  const Oracle* oracle_;
  std::vector<NodeBits> classes_;
  std::vector<std::unique_ptr<NodeBits>> visible_;  // lazily, per class
  std::unordered_multimap<uint64_t, size_t> by_hash_;
  std::map<std::tuple<size_t, int, size_t>, std::vector<NodeId>> memo_;
  size_t evaluations_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
