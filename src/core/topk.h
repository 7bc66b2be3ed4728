// Top-k extraction over similarity score vectors.
//
// Applications (synonym expansion, categorisation, link prediction) rarely
// want a full n-vector of scores; they want the k most similar nodes. Every
// top-k path in the library — TopK over a vector, TopKOfColumn and
// TopKOfColumns over a score block, the engines' TopKQuery — funnels through
// one bounded selector (partial heap selection, O(n log k)) under one strict
// total order, RanksBefore. Because that order is total, the selected set is
// unique: per-shard selectors merged in any order equal one serial pass, so
// results never depend on the thread count or the partitioning.

#ifndef CSRPLUS_CORE_TOPK_H_
#define CSRPLUS_CORE_TOPK_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "linalg/dense_matrix.h"

namespace csrplus::core {

using linalg::Index;

/// One scored node.
struct ScoredNode {
  Index node;
  double score;

  bool operator==(const ScoredNode& other) const {
    return node == other.node && score == other.score;
  }
};

/// One descending top-k list per query, in query order.
using TopKLists = std::vector<std::vector<ScoredNode>>;

/// The score part of the ranking order: true when score `a` ranks strictly
/// above `b`. Higher scores rank first and NaN ranks below every number
/// (two NaNs tie), so the order stays a strict weak order on any input.
inline bool ScoreRanksAbove(double a, double b) {
  if (std::isnan(b)) return !std::isnan(a);
  return a > b;
}

/// The one ranking order of every top-k path: ScoreRanksAbove, ties broken
/// by the lower node id. A strict total order over distinct nodes.
inline bool RanksBefore(const ScoredNode& a, const ScoredNode& b) {
  if (ScoreRanksAbove(a.score, b.score)) return true;
  if (ScoreRanksAbove(b.score, a.score)) return false;
  return a.node < b.node;
}

/// Bounded selection of the k best entries (under RanksBefore) of
/// everything offered, in any order. Shard-local selectors combine with
/// Merge; the result is the same for every split of the input.
class TopKSelector {
 public:
  explicit TopKSelector(Index k)
      : k_(std::max<Index>(k, 0)), floor_(EmptyFloor()) {}

  void Offer(Index node, double score) {
    // Fast reject: once full, a number strictly below the kept worst can
    // never enter (NaN on either side falls through to the full order).
    if (score < floor_) return;
    Admit(node, score);
  }

  /// Offers every entry `other` kept.
  void Merge(const TopKSelector& other) {
    for (const ScoredNode& entry : other.heap_) Offer(entry.node, entry.score);
  }

  /// True once k entries are kept (never for k = 0).
  bool full() const {
    return k_ > 0 && static_cast<Index>(heap_.size()) == k_;
  }

  /// The kept entry that ranks last. Requires full(): from then on an
  /// offer enters only if it ranks before this entry.
  const ScoredNode& worst() const {
    CSR_DCHECK(full());
    return heap_.front();
  }

  /// The kept entries, in no particular order.
  std::span<const ScoredNode> kept() const { return heap_; }

  /// The kept entries, best first; leaves the selector empty.
  std::vector<ScoredNode> Take() {
    std::vector<ScoredNode> out = std::move(heap_);
    heap_.clear();
    floor_ = EmptyFloor();
    std::sort(out.begin(), out.end(), RanksBefore);
    return out;
  }

 private:
  // Below every number while there is room; above every number for k = 0.
  double EmptyFloor() const { return k_ == 0 ? INFINITY : -INFINITY; }

  void Admit(Index node, double score) {
    if (static_cast<Index>(heap_.size()) < k_) {
      heap_.push_back({node, score});
      std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
    } else if (k_ > 0 && RanksBefore({node, score}, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), RanksBefore);
      heap_.back() = {node, score};
      std::push_heap(heap_.begin(), heap_.end(), RanksBefore);
    } else {
      return;
    }
    if (static_cast<Index>(heap_.size()) == k_) floor_ = heap_.front().score;
  }

  Index k_;
  double floor_;  // worst kept score once full, else EmptyFloor()
  std::vector<ScoredNode> heap_;  // heap under RanksBefore: worst at front
};

/// How many entries to select from an n-entry column so that up to
/// `excluded` of them can be dropped afterwards and k still remain:
/// min(k + excluded, n), without overflow for huge k.
inline Index SelectionWidth(Index k, std::size_t excluded, Index n) {
  if (k <= 0) return 0;
  if (k >= n) return n;
  return std::min<Index>(n, k + static_cast<Index>(excluded));
}

/// Drops every node in `exclude` from a best-first list and keeps the first
/// k. On a list selected SelectionWidth(k, |exclude|, n) wide this equals
/// selecting k with the exclusion applied in the first place.
std::vector<ScoredNode> TrimTopK(std::vector<ScoredNode> list, Index k,
                                 std::span<const Index> exclude = {});

/// The k highest-scoring entries of `scores`, best first (RanksBefore),
/// excluding any ids in `exclude`.
std::vector<ScoredNode> TopK(const std::vector<double>& scores, Index k,
                             const std::vector<Index>& exclude = {});

/// Top-k of column `col` of a score matrix (n x q layout as produced by
/// multi-source queries).
std::vector<ScoredNode> TopKOfColumn(const linalg::DenseMatrix& scores,
                                     Index col, Index k,
                                     const std::vector<Index>& exclude = {});

/// Top-k of every column of an n x q block in one row-major pass. When
/// `exclude_per_column` is non-empty it holds one node per column that
/// column j leaves out (e.g. the query set, to skip each query itself).
/// Column j equals TopKOfColumn(scores, j, k, {exclude_per_column[j]}).
TopKLists TopKOfColumns(const linalg::DenseMatrix& scores, Index k,
                        std::span<const Index> exclude_per_column = {});

}  // namespace csrplus::core

#endif  // CSRPLUS_CORE_TOPK_H_
